"""Pipeline configuration: defaults, JSON parsing, strict key validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

from .ingest import ClassSpec, Taxonomy, read_int, read_number, read_numbers
from .score import ScoringConfig
from .search import SearchConfig

# Per-class defaults: average dimensions (l, w, h) in meters and the sweep
# aggregation window (past, future) that works best for the class. Every
# class keeps ClassSpec's default BEV association radius for tracking.
DEFAULT_CLASSES = (
    ("car", (4.6, 1.95, 1.7), (0, 0)),
    ("truck", (6.9, 2.5, 2.8), (1, 1)),
    ("trailer", (12.3, 2.9, 3.9), (2, 0)),
    ("bus", (11.0, 2.9, 3.5), (0, 0)),
    ("construction-vehicle", (6.4, 2.85, 3.2), (0, 0)),
    ("bicycle", (1.7, 0.6, 1.3), (0, 2)),
    ("motorcycle", (2.1, 0.77, 1.47), (1, 1)),
    ("emergency-vehicle", (6.5, 2.4, 2.7), (6, 0)),
    ("adult", (0.73, 0.67, 1.77), (1, 1)),
    ("child", (0.52, 0.5, 1.38), (6, 0)),
    ("police-officer", (0.73, 0.67, 1.77), (1, 1)),
    ("construction-worker", (0.73, 0.67, 1.77), (0, 2)),
    ("stroller", (0.8, 0.58, 1.03), (0, 10)),
    ("personal-mobility", (0.7, 0.4, 1.4), (1, 1)),
    ("pushable-pullable", (0.67, 0.6, 1.06), (0, 2)),
    ("debris", (0.7, 0.7, 0.5), (0, 0)),
    ("traffic-cone", (0.41, 0.41, 1.07), (0, 2)),
    ("barrier", (2.5, 0.62, 0.98), (0, 0)),
)


def default_taxonomy() -> Taxonomy:
    return Taxonomy(
        classes=tuple(
            ClassSpec(name=n, avg_dims=d, aggregation=a) for n, d, a in DEFAULT_CLASSES
        )
    )


@dataclass(frozen=True)
class PipelineConfig:
    taxonomy: Taxonomy = field(default_factory=default_taxonomy)
    search: SearchConfig = field(default_factory=SearchConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    routing_threshold: float = 0.3
    sector_half_width: float = math.pi / 6.0
    sweep_stride: int = 5  # binary record stride, 4 or 5 floats

    def __post_init__(self):
        if self.sweep_stride not in (4, 5):
            raise ValueError("sweep_stride must be 4 or 5")
        if not (0.0 <= self.routing_threshold <= 1.0):
            raise ValueError("routing_threshold must be in [0, 1]")
        if not (0.0 < self.sector_half_width <= math.pi):
            raise ValueError("sector_half_width must be in (0, pi]")


def _check_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def _read(read, value, where: str):
    """`read(value)`, its ValueError prefixed with the value's place in the document."""
    try:
        return read(value)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _taxonomy_from_json(obj: dict) -> Taxonomy:
    _check_keys(obj, {"classes"}, "taxonomy")
    if not isinstance(obj["classes"], list):
        raise ValueError(f"taxonomy.classes must be a list, got {obj['classes']!r}")
    classes = []
    for i, entry in enumerate(obj["classes"]):
        where = f"taxonomy.classes[{i}]"
        _check_keys(entry, {f.name for f in fields(ClassSpec)}, where)
        name = str(entry["name"])
        # the same "class <name>: " that ClassSpec's own checks put first
        at = f"{where}: class {name}"
        agg = entry.get("aggregation", {})
        _check_keys(agg, {"past", "future"}, f"{at}: aggregation")
        dims = _read(lambda v: read_numbers(v, 3), entry["avg_dims"], f"{at}: avg_dims")
        window = tuple(_read(read_int, agg.get(k, 0), f"{at}: aggregation.{k}") for k in ("past", "future"))
        radius = _read(read_number, entry.get("match_radius", ClassSpec.match_radius), f"{at}: match_radius")
        try:
            spec = ClassSpec(name=name, avg_dims=dims, aggregation=window, match_radius=radius)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        classes.append(spec)
    return Taxonomy(classes=tuple(classes))


def _dataclass_from_dict(cls, doc, where: str = ""):
    """Build `cls` from a JSON object, field by field, defaults for the rest.

    Nested dataclass fields recurse, the taxonomy has its own layout, and
    every other value goes through the reader for the type of the field's
    default. Unknown keys and values the reader rejects are errors that
    name the key's dotted path (`where`, empty at the top level).
    """
    _check_keys(doc, {f.name for f in fields(cls)}, where or "config")
    defaults = cls()
    kwargs = {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        path = f"{where}.{key}" if where else key
        if isinstance(default, Taxonomy):
            kwargs[key] = _taxonomy_from_json(value)
        elif is_dataclass(default):
            kwargs[key] = _dataclass_from_dict(type(default), value, path)
        else:
            kwargs[key] = _read(read_int if isinstance(default, int) else read_number, value, path)
    return cls(**kwargs)


def config_from_dict(doc: dict) -> PipelineConfig:
    return _dataclass_from_dict(PipelineConfig, doc)


def load_config(path) -> PipelineConfig:
    with open(path) as f:
        doc = json.load(f)
    return config_from_dict(doc)
