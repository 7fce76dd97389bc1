"""Separable mixture-of-LoRA adapters with a continual-tuning simulator."""

__version__ = "0.1.0"
