"""Shipped catalog, product configurations, and scenario definitions."""

from pathlib import Path

_DIR = Path(__file__).parent


def _path(name: str) -> Path:
    return _DIR / name


def catalog_path() -> Path:
    return _path("catalog.fm")


def config_path(product: str) -> Path:
    """`product` is 'seco_a' or 'seco_b'."""
    return _path(f"{product}.cfg")


def scenario_path(scenario_id: str) -> Path:
    return _path(f"scenarios/{scenario_id}.scn")
