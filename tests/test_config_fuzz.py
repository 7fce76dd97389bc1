"""Drawn `--config` files: RunConfig keys set to small ints, floats (NaN and
the infinities among them), strings, booleans, null and lists.

`smolora train` either runs (exit 0) or exits 1 with one `configuration
error:` or `usage error:` line; it never shows a traceback or exits 4.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from _fuzz import assert_clean_exit
from hypothesis import given, strategies as st

from smolora.cli import EXIT_OK, EXIT_USAGE, main as cli_main
from smolora.harness import METHODS, RunConfig

# Drawn values replace some of these; no drawn value builds a large model or
# trains for long.
BASE = {"method": "smolora", "vu_blocks": 2, "if_blocks": 2, "rank": 1, "embed_dim": 4,
        "hidden": 4, "batch_size": 2, "epochs": 1}
VALUES = st.one_of(
    st.integers(-2, 6),
    st.one_of(st.floats(-2, 6), st.floats(), st.sampled_from(["NaN", "Infinity", "-Infinity"]).map(float)),
    st.one_of(st.sampled_from(METHODS), st.text(max_size=3), st.booleans(), st.none(),
              st.lists(st.integers(-2, 6), max_size=2)),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    code = cli_main(["generate", "--seed", "4", "--tasks", "2", "--dv", "4", "--classes", "2",
                     "--train-per-task", "4", "--test-per-task", "3", "--out", str(root / "s.jsonl")])
    assert code == EXIT_OK
    return root


@given(drawn=st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)), VALUES,
                             min_size=1, max_size=2))
def test_drawn_config_runs_or_is_rejected_cleanly(workdir, drawn):
    path = workdir / "config.json"
    path.write_text(json.dumps({**BASE, **drawn}))
    assert_clean_exit(["train", "--stream", str(workdir / "s.jsonl"), "--out-dir", str(workdir / "run"),
                       "--config", str(path)], None, EXIT_USAGE,
                      ("configuration error: ", "usage error: "))
