"""Versioned JSON manifold specs: load, validate, serialize.

A spec file declares a bundle without executing any code: potentials, map
components and locus parametrizations are expression trees over the
primitive grammar (identifiers, + - * / pow log exp sqrt abs2 conj re im).
"""

from __future__ import annotations

import json
import sys

from . import exprs
from .antiholo import AntiholoMap, FixedLocusParam
from .bundles import ManifoldBundle
from .errors import SpecFormatError
from .metrics import PotentialChart
from .verify import Tolerances

SCHEMA_VERSION = 1

_C1_SIGNS = ("negative", "zero", "positive")


def bundle_to_dict(bundle: ManifoldBundle) -> dict:
    chart = bundle.chart
    if callable(chart.potential):
        raise SpecFormatError("black-box potentials cannot be serialized")
    out = {
        "schema_version": SCHEMA_VERSION,
        "name": bundle.label,
        "dimension": chart.dimension,
        "potential": exprs.to_jsonable(chart.potential),
        "domain": {
            "box": [list(side) for side in chart.box],
            "predicate": exprs.to_jsonable(chart.domain)
            if chart.domain is not None
            else None,
        },
        "map": None,
        "locus": None,
        "c1_sign": bundle.c1_sign,
        "assumed_hypotheses": list(bundle.assumed_hypotheses),
        "tolerances": {k: v for k, v in bundle.tolerance_overrides},
    }
    if bundle.mapping is not None:
        out["map"] = {
            "components": [exprs.to_jsonable(c) for c in bundle.mapping.components],
            "involution": bundle.mapping.declared_involution,
        }
    if bundle.locus is not None:
        out["locus"] = {
            "components": [exprs.to_jsonable(c) for c in bundle.locus.components],
            "box": [list(side) for side in bundle.locus.box],
        }
    return out


def _require(cond, message):
    if not cond:
        raise SpecFormatError(message)


def _is_finite_number(x):
    """A JSON number that converts to a finite float; NaN fails the comparison."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _read_box(obj, length, where):
    _require(isinstance(obj, list) and len(obj) == length, f"{where}: box must list {length} [lo, hi] pairs")
    box = []
    for i, side in enumerate(obj):
        _require(
            isinstance(side, list) and len(side) == 2 and all(_is_finite_number(x) for x in side),
            f"{where}[{i}]: expected [lo, hi] with finite bounds",
        )
        _require(side[0] < side[1], f"{where}[{i}]: lo must be below hi")
        box.append((float(side[0]), float(side[1])))
    return tuple(box)


def bundle_from_dict(data: dict) -> ManifoldBundle:
    _require(isinstance(data, dict), "spec must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SpecFormatError(
            f"schema-version mismatch: file has {version!r}, supported is {SCHEMA_VERSION}"
        )
    _require("dimension" in data, "missing key 'dimension'")
    n = data["dimension"]
    _require(isinstance(n, int) and n >= 1, "'dimension' must be a positive integer")
    _require("potential" in data, "missing key 'potential'")
    wnames = set(exprs.coord_names(n))
    potential = exprs.from_jsonable(data["potential"])
    exprs.validate(potential, wnames, path="potential")

    domain_block = data.get("domain") or {}
    _require(isinstance(domain_block, dict), "'domain' must be an object")
    _require("box" in domain_block, "domain needs a 'box'")
    box = _read_box(domain_block["box"], 2 * n, "domain.box")
    predicate = domain_block.get("predicate")
    if predicate is not None:
        predicate = exprs.from_jsonable(predicate)
        exprs.validate(predicate, wnames, path="domain.predicate")

    name = data.get("name", "spec")
    _require(isinstance(name, str), "'name' must be a string")
    chart = PotentialChart(
        dimension=n, potential=potential, box=box, domain=predicate, label=name
    )

    mapping = None
    if data.get("map") is not None:
        mblock = data["map"]
        _require(isinstance(mblock, dict) and "components" in mblock, "'map' needs 'components'")
        comps = mblock["components"]
        _require(isinstance(comps, list) and len(comps) == n, f"map needs {n} components")
        parsed = []
        for i, c in enumerate(comps):
            e = exprs.from_jsonable(c)
            exprs.validate(e, wnames, path=f"map.components[{i}]")
            parsed.append(e)
        mapping = AntiholoMap(
            components=tuple(parsed),
            declared_involution=bool(mblock.get("involution", False)),
            label=f"{name}-map",
        )

    locus = None
    if data.get("locus") is not None:
        lblock = data["locus"]
        _require(isinstance(lblock, dict) and "components" in lblock and "box" in lblock,
                 "'locus' needs 'components' and 'box'")
        comps = lblock["components"]
        _require(isinstance(comps, list) and len(comps) == n, f"locus needs {n} components")
        lbox = lblock["box"]
        _require(isinstance(lbox, list) and lbox, "locus.box must list at least one [lo, hi] pair")
        lbox = _read_box(lbox, len(lbox), "locus.box")
        tnames = set(exprs.coord_names(len(lbox), prefix="t"))
        parsed = []
        for i, c in enumerate(comps):
            e = exprs.from_jsonable(c)
            exprs.validate(e, tnames, path=f"locus.components[{i}]")
            parsed.append(e)
        locus = FixedLocusParam(components=tuple(parsed), box=lbox, label=f"{name}-locus")

    c1 = data.get("c1_sign", "positive")
    _require(c1 in _C1_SIGNS, f"'c1_sign' must be one of {_C1_SIGNS}")
    hypotheses = data.get("assumed_hypotheses", [])
    _require(
        isinstance(hypotheses, list) and all(isinstance(h, str) for h in hypotheses),
        "'assumed_hypotheses' must be a list of strings",
    )
    tol = data.get("tolerances", {})
    _require(isinstance(tol, dict), "'tolerances' must be an object")
    for k, v in tol.items():
        _require(_is_finite_number(v), f"tolerance {k!r} must be a finite number, got {v!r}")
    try:
        Tolerances().with_overrides(tol.items())
    except (KeyError, ValueError) as err:
        raise SpecFormatError(err.args[0]) from err
    return ManifoldBundle(
        chart=chart,
        mapping=mapping,
        locus=locus,
        c1_sign=c1,
        assumed_hypotheses=tuple(hypotheses),
        label=name,
        tolerance_overrides=tuple(sorted(tol.items())),
    )


def load_spec(path) -> ManifoldBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise SpecFormatError(f"cannot read spec file: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecFormatError(
            f"invalid JSON: {err.msg}", line=err.lineno, column=err.colno
        ) from err
    return bundle_from_dict(data)


def save_spec(bundle: ManifoldBundle, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle_to_dict(bundle), fh, indent=2, sort_keys=True)
        fh.write("\n")
