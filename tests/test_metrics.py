import dataclasses

import numpy as np
import pytest
from _oracles import dict_mif, write_dict_records
from _reference_tables import EXCLUSIONS, HEADLINE, TABLES

from smolora.errors import ContractError, FormatError, MetricUndefinedError
from smolora.metrics import (
    AccuracyMatrix,
    Records,
    accuracy_tables,
    ap,
    bwt,
    compute_report,
    mean_ap,
    mif,
    read_accuracy_csv,
    read_records_jsonl,
    round_display,
    write_accuracy_csv,
    write_records_jsonl,
)


class TestAP:
    def test_published_final_row(self):
        a = AccuracyMatrix(TABLES["smolora_single"])
        assert ap(a, 6) == pytest.approx(83.44, abs=0.005)

    def test_single_stage_is_its_own_score(self):
        a = AccuracyMatrix([[42.5]])
        assert ap(a, 1) == 42.5

    def test_constant_row(self):
        a = AccuracyMatrix([[7.0], [7.0, 7.0], [7.0, 7.0, 7.0]])
        assert ap(a, 3) == pytest.approx(7.0)

    def test_depends_only_on_its_row(self):
        rows = [r[:] for r in TABLES["smolora_single"]]
        rows[2] = [0.0, 0.0, 0.0]
        assert ap(AccuracyMatrix(rows), 6) == ap(AccuracyMatrix(TABLES["smolora_single"]), 6)

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(ContractError):
            AccuracyMatrix([[80.0], [70.0]])  # row 2 must have 2 entries


class TestMeanAP:
    def test_published_table(self):
        a = AccuracyMatrix(TABLES["smolora_single"])
        assert mean_ap(a, 6) == pytest.approx(84.85, abs=0.005)

    def test_first_stage_equals_ap(self):
        a = AccuracyMatrix([[33.0], [50.0, 10.0]])
        assert mean_ap(a, 1) == ap(a, 1)

    def test_constant_matrix(self):
        a = AccuracyMatrix([[9.0], [9.0, 9.0]])
        assert mean_ap(a, 2) == pytest.approx(9.0)


class TestBWT:
    def test_published_table(self):
        a = AccuracyMatrix(TABLES["smolora_single"])
        assert bwt(a, 6) == pytest.approx(-3.23, abs=0.005)

    def test_no_forgetting_is_zero(self):
        a = AccuracyMatrix([[80.0], [80.0, 60.0], [80.0, 60.0, 90.0]])
        assert bwt(a, 3) == 0.0

    def test_single_difference(self):
        a = AccuracyMatrix([[80.0], [70.0, 55.0]])
        assert bwt(a, 2) == pytest.approx(-10.0)

    def test_undefined_for_one_stage(self):
        a = AccuracyMatrix([[80.0]])
        with pytest.raises(MetricUndefinedError):
            bwt(a, 1)

    def test_invariant_to_consistent_task_permutation(self):
        rng = np.random.default_rng(0)
        finals = rng.uniform(20, 90, size=5)
        diags = rng.uniform(20, 90, size=6)

        def build(perm):
            rows = []
            f = list(np.array(finals)[perm]) + [diags[5]]
            d = list(np.array(diags[:5])[perm]) + [diags[5]]
            for k in range(1, 7):
                row = [30.0] * (k - 1) + [d[k - 1]]
                rows.append(row)
            rows[5] = f[:5] + [d[5]]
            return AccuracyMatrix(rows)

        base = bwt(build(np.arange(5)), 6)
        shuffled = bwt(build(rng.permutation(5)), 6)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_scale_linearity(self):
        rows = TABLES["smolora_single"]
        a = AccuracyMatrix(rows)
        scaled = AccuracyMatrix([[2.0 * x for x in row] for row in rows])
        assert ap(scaled, 6) == pytest.approx(2.0 * ap(a, 6))
        assert mean_ap(scaled, 6) == pytest.approx(2.0 * mean_ap(a, 6))
        assert bwt(scaled, 6) == pytest.approx(2.0 * bwt(a, 6))


class TestPublishedTablesOracle:
    """Every headline AP/MAP/BWT reproduces within +/-0.01, except the listed
    exclusion, which reproduces once the implied cell value is substituted."""

    @pytest.mark.parametrize("key", sorted(TABLES))
    def test_headline_values(self, key):
        a = AccuracyMatrix(TABLES[key])
        ap_ref, map_ref, bwt_ref = HEADLINE[key]
        excluded = {(k, r, c) for k, r, c, _ in EXCLUSIONS if k == key}
        if not excluded:
            assert ap(a, 6) == pytest.approx(ap_ref, abs=0.01)
            assert mean_ap(a, 6) == pytest.approx(map_ref, abs=0.01)
        assert bwt(a, 6) == pytest.approx(bwt_ref, abs=0.01)

    def test_exclusion_is_real_and_reconciles(self):
        key, row, col, implied = EXCLUSIONS[0]
        printed = AccuracyMatrix(TABLES[key])
        ap_ref, map_ref, _ = HEADLINE[key]
        # The printed cell does not reproduce the headline at +/-0.01 ...
        assert abs(ap(printed, 6) - ap_ref) > 0.01
        # ... but stays within the documented +/-0.25 envelope ...
        assert ap(printed, 6) == pytest.approx(ap_ref, abs=0.25)
        assert mean_ap(printed, 6) == pytest.approx(map_ref, abs=0.25)
        # ... and substituting the implied value reconciles it exactly.
        rows = [r[:] for r in TABLES[key]]
        rows[row][col] = implied
        fixed = AccuracyMatrix(rows)
        assert ap(fixed, 6) == pytest.approx(ap_ref, abs=0.01)
        assert mean_ap(fixed, 6) == pytest.approx(map_ref, abs=0.01)


_KEYS = ("stage", "task_id", "instance_index", "content_correct", "format_correct")


def records_of(rows) -> Records:
    """A Records table from (stage, task_id, format_ok) rows: index 0, content correct."""
    rows = list(rows)
    return Records(
        stage=np.array([r[0] for r in rows], dtype=np.int64),
        task_id=np.array([r[1] for r in rows], dtype=np.int64),
        instance_index=np.zeros(len(rows), dtype=np.int64),
        content_correct=np.ones(len(rows), dtype=np.int64),
        format_correct=np.array([int(r[2]) for r in rows], dtype=np.int64),
    )


def as_dicts(records: Records) -> list[dict]:
    columns = [getattr(records, k).tolist() for k in _KEYS]
    return [dict(zip(_KEYS, row)) for row in zip(*columns)]


def random_records(seed, n=500, stages=12, tasks=12, index_limit=300) -> Records:
    """Random records whose stage, task and index values run to two and three digits."""
    rng = np.random.default_rng(seed)
    return Records(
        stage=rng.integers(1, stages + 1, n),
        task_id=rng.integers(0, tasks, n),
        instance_index=rng.integers(0, index_limit, n),
        content_correct=rng.integers(0, 2, n),
        format_correct=rng.integers(0, 2, n),
    )


class TestMIF:
    def test_all_correct(self):
        records = records_of([(2, t, True) for t in (0, 1)] * 3)
        assert mif(records) == 100.0

    def test_half_split(self):
        records = records_of([(1, 0, True), (1, 1, False)])
        assert mif(records) == 50.0

    def test_hand_count(self):
        records = records_of([(3, 0, True)] * 3 + [(3, 0, False)] + [(3, 1, True), (3, 1, False)])
        assert mif(records) == pytest.approx(62.5)

    def test_uses_latest_stage_by_default(self):
        records = records_of([(1, 0, False), (2, 0, True)])
        assert mif(records) == 100.0

    def test_empty_records_rejected(self):
        with pytest.raises(ContractError):
            mif(records_of([]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dict_mif(self, seed):
        # The records up to stage k, so that stage k is the latest.
        records = random_records(seed, n=300)
        for k in (1, 7, 12):
            keep = records.stage <= k
            upto = Records(**{f.name: getattr(records, f.name)[keep]
                              for f in dataclasses.fields(Records)})
            assert len(upto) and mif(upto) == dict_mif(as_dicts(upto))


class TestAccuracyTables:
    # Task 7 is learned first, then task 3, with seven instances; the records
    # are out of stage order.
    ROWS = [(2, 3, i, int(i < 3), int(i % 2 == 0)) for i in range(7)] + [
        (1, 7, 0, 1, 1), (2, 7, 1, 0, 1), (1, 7, 1, 1, 0), (2, 7, 0, 1, 1)]

    def test_columns_follow_the_stage_each_task_is_first_scored(self):
        content, fmt = accuracy_tables(Records(*map(np.array, zip(*self.ROWS))))
        assert content == AccuracyMatrix([[100.0], [50.0, 100.0 * 3 / 7]])
        assert fmt == AccuracyMatrix([[50.0], [100.0, 100.0 * 4 / 7]])

    def test_records_in_any_order_read_back(self, tmp_path):
        records = Records(*map(np.array, zip(*self.ROWS)))
        write_records_jsonl(tmp_path / "records.jsonl", records)
        assert read_records_jsonl(tmp_path / "records.jsonl") == records


class TestReport:
    def test_report_consistency(self):
        a = AccuracyMatrix(TABLES["smolora_single"])
        report = compute_report(a)
        assert report.map == pytest.approx(sum(report.per_stage_ap) / 6, abs=1e-9)
        assert report.bwt == pytest.approx(-3.23, abs=0.005)
        assert report.mif is None

    def test_single_stage_has_no_bwt(self):
        report = compute_report(AccuracyMatrix([[55.0]]))
        assert report.bwt is None
        assert report.ap == 55.0

    def test_round_display_half_away_from_zero(self):
        assert round_display(83.445) == 83.45
        assert round_display(-3.225) == -3.23
        assert round_display(2.004) == 2.0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        a = AccuracyMatrix(TABLES["seqlora_multi"])
        path = tmp_path / "accuracy.csv"
        write_accuracy_csv(path, a)
        back = read_accuracy_csv(path)
        assert back == a
        header = path.read_text().splitlines()[0]
        assert header == "stage,task_1,task_2,task_3,task_4,task_5,task_6"

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("stage,task_1,task_2\n1,80.0,\n2,oops,70.0\n")
        with pytest.raises(FormatError, match=r"'oops'.*column 2.*line 3"):
            read_accuracy_csv(path)

    @pytest.mark.parametrize("text, fault", [
        ("stage,task_1,task_2\n1,50.0,\n2,,60.0,70.0\n", r"4 cells, more than the header's 3.*line 3"),
        ("stage,task_1,task_2\n1,,50.0\n2,60.0,70.0\n", r"blank cell before a score in column 2.*line 2"),
        ("stage,task_1,task_2\n5,50.0,\n1,60.0,70.0\n", r"stage cell '5' in data row 1.*line 2"),
    ])
    def test_rows_that_shift_scores_rejected(self, tmp_path, text, fault):
        # Each of these once read as AP 65.0 and BWT 10.0.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=fault):
            read_accuracy_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,task_1\n1,80.0\n")
        with pytest.raises(FormatError, match="line 1"):
            read_accuracy_csv(path)

    @pytest.mark.parametrize("header", ["stage,task_2,task_1", "stage,task_1,task_1", "stage,task_1,t"])
    def test_header_task_names_out_of_order(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n1,80.0,\n2,70.0,60.0\n")
        with pytest.raises(FormatError, match=r"is not stage,task_1,...,task_W.*line 1"):
            read_accuracy_csv(path)

    def test_records_round_trip(self, tmp_path):
        records = Records(
            stage=np.ones(4, dtype=np.int64),
            task_id=np.zeros(4, dtype=np.int64),
            instance_index=np.arange(4),
            content_correct=np.ones(4, dtype=np.int64),
            format_correct=np.zeros(4, dtype=np.int64),
        )
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, records)
        assert read_records_jsonl(path) == records

    def test_nul_byte_is_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"stage,task_1\n1,80\x00.0\n")
        with pytest.raises(FormatError, match="line 2"):
            read_accuracy_csv(path)


class TestRecordsFile:
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_match_json_dumps(self, tmp_path, seed):
        records = random_records(seed)
        assert max(records.stage) >= 10 and max(records.task_id) >= 10
        assert max(records.instance_index) >= 100
        write_records_jsonl(tmp_path / "got.jsonl", records)
        write_dict_records(tmp_path / "want.jsonl", as_dicts(records))
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_empty_file_is_no_run(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, records_of([]))
        assert path.read_bytes() == b""
        with pytest.raises(FormatError, match=r"stage 1 adds the tasks \[\], not exactly one"):
            read_records_jsonl(path)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"content_correct": 1, "instance_index": 0, "stage": 1, "task_id": 0}', "keys"),
            ("[1,2]", "keys"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": 0, "extra": 0}', "keys"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": "x", '
             '"task_id": 0}', "stage must be an int64 >= 1, got 'x'"),
            ('{"content_correct": true, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": 0}', "content_correct must be 0 or 1, got True"),
            ('{"content_correct": 1, "format_correct": 2, "instance_index": 0, "stage": 1, '
             '"task_id": 0}', "format_correct must be 0 or 1"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 0, '
             '"task_id": 0}', "stage must be an int64 >= 1"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": -1, "stage": 1, '
             '"task_id": 0}', "instance_index must be an int64 >= 0"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": 1.0}', "task_id must be an int64 >= 0"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": 9223372036854775808}', "task_id must be an int64 >= 0"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": 0}', "repeats the record of line 1"),
            ('{"content_correct": 1,', "bad record"),
            ('{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, '
             '"task_id": ' + "9" * 5000 + "}", "bad record"),
        ],
    )
    def test_bad_record_names_its_line(self, tmp_path, line, problem):
        good = '{"content_correct": 1, "format_correct": 1, "instance_index": 0, "stage": 1, "task_id": 0}'
        path = tmp_path / "records.jsonl"
        path.write_text(f"{good}\n\n{line}\n")
        with pytest.raises(FormatError, match="line 3") as exc:
            read_records_jsonl(path)
        assert problem in str(exc.value)
