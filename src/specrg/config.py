"""Versioned JSON model configs and the run configs that name them.

Complex matrix entries are [re, im] pairs nested row-major; polynomial
families are lists of coefficient matrices (constant term first).  Unknown
keys are rejected at every level so that typos fail loudly.  A run config
names a model and sets the flow's one option (see ``specrg.cli``).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .fock import ModeGrid
from .model import PROFILES, ModelSpec, validate_generators
from .symmetry import SymmetryOp

SCHEMA_VERSION = 1

FIXTURES = ("m_triv", "m_exact", "m_pauli", "m_kramers")


class ConfigError(ValueError):
    """Malformed or unsupported model configuration."""


def _require_keys(d: dict, required, optional=(), where="config"):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _parse_matrix(obj, where="matrix") -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric array: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{where}: expected square matrix of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_poly(obj, dim, where="polynomial") -> list:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a nonempty list of coefficient matrices")
    out = []
    for k, coeff in enumerate(obj):
        m = _parse_matrix(coeff, f"{where}[{k}]")
        if m.shape != (dim, dim):
            raise ConfigError(f"{where}[{k}]: expected {dim}x{dim}, got {m.shape}")
        out.append(m)
    return out


def parse_model_config(doc: dict, validate: bool = True) -> ModelSpec:
    _require_keys(
        doc,
        required=["schema_version", "name", "dims", "atomic_hamiltonian",
                  "coupling", "coupling_strength", "infrared_exponent",
                  "reference_point", "region_radius", "window_radius",
                  "contour_radius", "grid", "truncation"],
        optional=["symmetry_generators", "flags", "conjugation"],
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']} "
            f"(this build reads {SCHEMA_VERSION})")

    dims = doc["dims"]
    _require_keys(dims, ["atomic", "degeneracy"], where="dims")
    d_at, d = int(dims["atomic"]), int(dims["degeneracy"])
    if not (1 <= d <= d_at):
        raise ConfigError(f"degeneracy {d} incompatible with atomic dim {d_at}")

    hat = _parse_poly(doc["atomic_hamiltonian"], d_at, "atomic_hamiltonian")

    coup = doc["coupling"]
    _require_keys(coup, ["profile", "matrix1"], ["matrix2"], where="coupling")
    if coup["profile"] not in PROFILES:
        raise ConfigError(
            f"unknown profile '{coup['profile']}'; known: {sorted(PROFILES)}")
    profile = PROFILES[coup["profile"]]
    b1 = _parse_poly(coup["matrix1"], d_at, "coupling.matrix1")
    b2 = _parse_poly(coup.get("matrix2", coup["matrix1"]), d_at, "coupling.matrix2")

    grid_doc = doc["grid"]
    _require_keys(grid_doc, ["ratio", "levels"], ["channel_weight"], where="grid")
    grid = ModeGrid(float(grid_doc["ratio"]), int(grid_doc["levels"]),
                    float(grid_doc.get("channel_weight", 1.0)))

    trunc = doc["truncation"]
    _require_keys(trunc, ["max_photons", "energy_cutoff"], where="truncation")

    sref = doc["reference_point"]
    if not (isinstance(sref, list) and len(sref) == 2):
        raise ConfigError("reference_point must be [re, im]")

    gens = []
    for i, gdoc in enumerate(doc.get("symmetry_generators", [])):
        # "label" names the generator for the reader; the program does not store it
        _require_keys(gdoc, ["matrix"], ["antiunitary", "label"],
                      where=f"symmetry_generators[{i}]")
        m = _parse_matrix(gdoc["matrix"], f"symmetry_generators[{i}].matrix")
        if m.shape != (d_at, d_at):
            raise ConfigError(f"generator {i} must be {d_at}x{d_at}")
        try:
            gens.append(SymmetryOp(m, bool(gdoc.get("antiunitary", False))))
        except ValueError as exc:
            raise ConfigError(f"generator {i}: {exc}") from None

    flags = doc.get("flags", {})
    _require_keys(flags, [], ["reflection_symmetric", "complex_selfadjoint"],
                  where="flags")

    jconj = None
    if "conjugation" in doc:
        jconj = _parse_matrix(doc["conjugation"], "conjugation")
        if jconj.shape != (d_at, d_at):
            raise ConfigError(f"conjugation operator must be {d_at}x{d_at}")

    spec = ModelSpec(
        name=str(doc["name"]),
        d_at=d_at,
        d=d,
        hat_coeffs=hat,
        profile=profile,
        b1_coeffs=b1,
        b2_coeffs=b2,
        g=float(doc["coupling_strength"]),
        mu=float(doc["infrared_exponent"]),
        s0=complex(float(sref[0]), float(sref[1])),
        region_radius=float(doc["region_radius"]),
        window_radius=float(doc["window_radius"]),
        contour_radius=float(doc["contour_radius"]),
        grid=grid,
        n_max=int(trunc["max_photons"]),
        e_cut=float(trunc["energy_cutoff"]),
        generators=gens,
        reflection_symmetric=bool(flags.get("reflection_symmetric", False)),
        complex_selfadjoint=bool(flags.get("complex_selfadjoint", False)),
        jconj=jconj,
    )
    # infrared convergence is a property of (profile, mu): fail at load
    profile.mu_norm_radial(spec.mu, grid.channel_weight)
    if validate:
        try:
            validate_generators(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return spec


def _read(source) -> dict:
    """The JSON object of a shipped fixture name or a config file."""
    name = str(source)
    if name in FIXTURES:
        text = resources.files("specrg").joinpath(f"fixtures/{name}.json").read_text()
    else:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {name}: {exc}") from None
    if not isinstance(doc, dict) or not doc:
        raise ConfigError(f"empty or malformed config {name}")
    return doc


def load_model(source) -> ModelSpec:
    """Load a ModelSpec from a path, or by shipped fixture name."""
    return parse_model_config(_read(source))


def load_run_config(source) -> tuple[bool, ModelSpec]:
    """(check_winding, model) from a run config, or (True, model) from a
    model config given directly (fixture name or file)."""
    doc = _read(source)
    if "model" not in doc:
        return True, parse_model_config(doc)
    _require_keys(doc, ["schema_version", "model"], ["rg"], where="run config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {doc['schema_version']}")
    rg = doc.get("rg", {})
    if not isinstance(rg, dict):
        raise ConfigError(f"rg must be an object, got {rg!r}")
    _require_keys(rg, [], ["check_winding"], where="rg")
    check_winding = rg.get("check_winding", True)
    if type(check_winding) is not bool:
        raise ConfigError(f"rg.check_winding must be bool, got {check_winding!r}")
    return check_winding, load_model(doc["model"])
