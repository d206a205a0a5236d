"""Suite configuration: structured key-value text with nested sections.

Example::

    [ambient]
    name = standard_sasakian
    n = 1

    [embedding]
    inputs = s, t
    outputs = s, t, 0.1

    [normal]
    scaling = unit
    orientation = 1

    [sample]
    count = 50
    box = -1, 1
    seed = 7

    [tolerances]
    axiom = 1e-8

    [suite]
    checks = axioms, two_form, gauss_weingarten, structure, algebraic, differential, theorems, models
    strict_paper = false
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, ExprParseError
from .exprs import compile_expression
from .induced import IDENTITY_TOL
from .sasakian import AXIOM_TOL
from .theorems import CONCLUSION_TOL, HYPOTHESIS_TOL

CONFIG_DIR_ENV = "SASAKICHECK_CONFIG_DIR"

CHECK_GROUPS = (
    "axioms",
    "two_form",
    "gauss_weingarten",
    "structure",
    "algebraic",
    "differential",
    "theorems",
    "models",
)

# the library's own defaults, and the Gauss-Weingarten reconstruction tolerance
DEFAULT_TOLERANCES = {
    "axiom": AXIOM_TOL,
    "algebraic": IDENTITY_TOL,
    "differential": IDENTITY_TOL,
    "hypothesis": HYPOTHESIS_TOL,
    "conclusion": CONCLUSION_TOL,
    "reconstruction": 1e-6,
}

# every section a config may hold, with the keys it may set
KNOWN_KEYS = {"ambient": ("name", "n"), "embedding": ("inputs", "outputs"),
              "normal": ("scaling", "orientation", "base_point"),
              "sample": ("count", "box", "seed"), "tolerances": tuple(DEFAULT_TOLERANCES),
              "suite": ("checks", "strict_paper")}


@dataclass
class SuiteConfig:
    name: str
    n: int
    inputs: List[str]
    outputs: List[str]
    scaling: Optional[str]
    orientation: object  # +1, -1, or "lambda_nonneg"
    base_point: Optional[Tuple[float, ...]]
    count: int
    box: Tuple[float, float]
    seed: int
    tolerances: Dict[str, float]
    checks: List[str]
    strict_paper: bool = False

    @property
    def surface_dim(self) -> int:
        return 2 * self.n

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 1


def _split_list(raw: str) -> List[str]:
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if len(lines) > 1:
        return lines
    return [part.strip() for part in raw.split(",") if part.strip()]


def check_seed(seed: int) -> int:
    """Return ``seed`` if numpy's seed sequence accepts it (it must be >= 0)."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def resolve_config_path(value: str) -> Path:
    """Literal path first, then the directory named by the environment."""
    p = Path(value)
    if p.exists():
        return p
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        for candidate in (Path(base) / value, Path(base) / f"{value}.cfg"):
            if candidate.exists():
                return candidate
    raise ConfigError(f"config file not found: {value}")


def load_suite_config(path) -> SuiteConfig:
    path = Path(path)
    # no section holds defaults: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read_string(path.read_bytes().decode("utf-8"), source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                          f"at offset {exc.start}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        valid = KNOWN_KEYS.get(section)
        if valid is None:
            raise ConfigError(f"unknown section [{section}]; valid: {', '.join(KNOWN_KEYS)}")
        for key in parser.options(section):
            if key not in valid:
                raise ConfigError(f"unknown [{section}] key {key!r}; valid: {', '.join(valid)}")

    def get(section, key, fallback=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        if fallback is not None:
            return fallback
        raise ConfigError(f"missing [{section}] {key} in {path}")

    ambient_name = get("ambient", "name")
    if ambient_name != "standard_sasakian":
        raise ConfigError(f"unknown ambient structure {ambient_name!r}")
    try:
        n = int(get("ambient", "n"))
    except ValueError as exc:
        raise ConfigError(f"[ambient] n must be an integer: {exc}") from exc
    if n < 1:
        raise ConfigError(f"[ambient] n must be >= 1, got {n}")

    inputs = _split_list(get("embedding", "inputs"))
    outputs = _split_list(get("embedding", "outputs"))
    for i, name in enumerate(inputs):
        if name in inputs[:i]:
            raise ConfigError(f"[embedding] inputs names {name!r} more than once")
    if len(inputs) != 2 * n:
        raise ConfigError(
            f"embedding declares {len(inputs)} input coordinates {inputs}, "
            f"expected {2 * n} for n = {n}"
        )
    if len(outputs) != 2 * n + 1:
        raise ConfigError(
            f"embedding outputs {len(outputs)} coordinates {outputs}, "
            f"expected {2 * n + 1} for the {2 * n + 1}-dimensional ambient"
        )
    for text in outputs:
        try:
            compile_expression(text, inputs)
        except ExprParseError as exc:
            raise ConfigError(f"bad embedding expression: {exc}") from exc

    scaling_raw = get("normal", "scaling", fallback="unit").strip()
    scaling: Optional[str]
    if scaling_raw == "unit":
        scaling = None
    else:
        try:
            compile_expression(scaling_raw, inputs)
        except ExprParseError as exc:
            raise ConfigError(f"bad normal scaling expression: {exc}") from exc
        scaling = scaling_raw
    orientation_raw = get("normal", "orientation", fallback="1").strip()
    base_point = None
    if orientation_raw == "lambda_nonneg":
        orientation: object = "lambda_nonneg"
        base_raw = get("normal", "base_point", fallback=", ".join(["0"] * (2 * n)))
        try:
            base_point = tuple(float(x) for x in _split_list(base_raw))
        except ValueError as exc:
            raise ConfigError(f"bad [normal] base_point: {exc}") from exc
        if len(base_point) != 2 * n:
            raise ConfigError(
                f"[normal] base_point has {len(base_point)} coordinates, expected {2 * n}"
            )
    else:
        try:
            orientation = int(orientation_raw)
        except ValueError as exc:
            raise ConfigError(
                f"[normal] orientation must be 1, -1 or lambda_nonneg: {exc}"
            ) from exc
        if orientation not in (1, -1):
            raise ConfigError(f"[normal] orientation must be 1 or -1, got {orientation}")

    try:
        count = int(get("sample", "count", fallback="50"))
        seed = check_seed(int(get("sample", "seed", fallback="7")))
        box_vals = [float(x) for x in _split_list(get("sample", "box", fallback="-1, 1"))]
    except ValueError as exc:
        raise ConfigError(f"bad [sample] entry: {exc}") from exc
    if count < 1:
        raise ConfigError(f"[sample] count must be >= 1, got {count}")
    # a finite width hi - lo implies finite bounds, and the sampler needs it
    if len(box_vals) != 2 or not (box_vals[0] < box_vals[1]
                                  and math.isfinite(box_vals[1] - box_vals[0])):
        raise ConfigError("[sample] box must be 'lo, hi' with lo < hi and a finite width "
                          f"hi - lo, got {box_vals}")

    tolerances = dict(DEFAULT_TOLERANCES)
    if parser.has_section("tolerances"):
        for key in parser.options("tolerances"):
            try:
                value = float(parser.get("tolerances", key))
            except ValueError as exc:
                raise ConfigError(f"bad tolerance {key}: {exc}") from exc
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"tolerance {key} must be a finite number >= 0, got {value}")
            tolerances[key] = value

    checks = _split_list(get("suite", "checks", fallback=", ".join(CHECK_GROUPS)))
    if not checks:
        raise ConfigError("[suite] checks names no check group; "
                          f"valid: {', '.join(CHECK_GROUPS)} (omit the key to run them all)")
    for c in checks:
        if c not in CHECK_GROUPS:
            raise ConfigError(f"unknown check group {c!r}; valid: {', '.join(CHECK_GROUPS)}")
    strict_raw = get("suite", "strict_paper", fallback="false").strip().lower()
    if strict_raw not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError(f"[suite] strict_paper must be boolean, got {strict_raw!r}")

    return SuiteConfig(
        name=path.stem,
        n=n,
        inputs=inputs,
        outputs=outputs,
        scaling=scaling,
        orientation=orientation,
        base_point=base_point,
        count=count,
        box=(box_vals[0], box_vals[1]),
        seed=seed,
        tolerances=tolerances,
        checks=checks,
        strict_paper=strict_raw in ("true", "yes", "1"),
    )
