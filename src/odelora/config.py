"""Experiment configuration: a sectioned key=value format with strict keys.

The on-disk format is INI-style: section headers in square brackets, one
``key = value`` per line, ``#`` comments. Every key is optional and has a
documented default; unknown sections or keys are rejected so typos cannot
silently fall back to defaults. ``serialize_config(parse_config(text))``
re-parses to an equal config.

``SCHEMA`` states every key once: its section, name, spec field, type and
range. Parsing, serialization and the sweep axes of the CLI all read it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .solvers import Scheme, SolverConfig

__all__ = [
    "ConfigError",
    "ParseError",
    "UnknownKey",
    "OutOfRange",
    "ProblemSpec",
    "InitSpec",
    "DiagnosticsSpec",
    "OutputSpec",
    "ExperimentConfig",
    "SCHEMA",
    "parse_value",
    "set_value",
    "parse_config",
    "serialize_config",
]


class ConfigError(Exception):
    """Base class for configuration failures."""


class ParseError(ConfigError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnknownKey(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown configuration key: {name}")


class OutOfRange(ConfigError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "sensing"          # sensing | quadratic | regression
    m: int = 40
    n: int = 40
    o: int = 40
    r: int = 4
    delta: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class InitSpec:
    scheme: str = "balanced"       # balanced | zero_b
    scale: float = 0.8
    perturbation: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class DiagnosticsSpec:
    eps_ratio: bool = True
    balance: bool = True
    certificate: bool = True


@dataclass(frozen=True)
class OutputSpec:
    run_label: str = "run"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    init: InitSpec = field(default_factory=InitSpec)
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(
            scheme=Scheme.ODE_RK4, step_size=0.1, iterations=500, eps_reg=1e-8
        )
    )
    diagnostics: DiagnosticsSpec = field(default_factory=DiagnosticsSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


@dataclass(frozen=True)
class _Parser:
    """Turns one raw value into a config value, or raises OutOfRange.

    ``convert`` maps the raw value to a config value and raises ValueError
    or KeyError on malformed text, which is reported as ``expected``.
    ``rule`` is a condition the value must meet and the phrase that reports
    a value that does not; a condition that must hold rejects ``nan``.
    ``render`` writes a value back as config text.
    """

    convert: object
    expected: str
    rule: tuple | None = None
    render: object = str

    def __call__(self, name: str, raw):
        try:
            value = self.convert(raw)
        except (ValueError, KeyError):
            raise OutOfRange(name, f"{self.expected}, got {raw!r}") from None
        if self.rule is not None and not self.rule[0](value):
            raise OutOfRange(name, f"{self.rule[1]}, got {value}")
        return value


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_UNIT = (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)")
_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _int(rule=None) -> _Parser:
    return _Parser(int, "expected an integer", rule)


def _float(rule) -> _Parser:
    finite = (lambda v: math.isfinite(v) and rule[0](v), f"{rule[1]} and finite")
    return _Parser(float, "expected a number", finite, repr)


def _choice(names, convert=str, render=str) -> _Parser:
    names = tuple(names)

    def pick(raw):
        if raw not in names:
            raise ValueError(raw)
        return convert(raw)

    return _Parser(pick, f"must be one of {names}", render=render)


_BOOLEAN = _Parser(lambda raw: _BOOLEANS[raw.strip().lower()], "expected a boolean",
                   render=lambda v: str(v).lower())

# section -> key -> (spec field, parser), in the order serialize_config writes.
SCHEMA: dict[str, dict[str, tuple[str, _Parser]]] = {
    "problem": {
        "kind": ("kind", _choice(("sensing", "quadratic", "regression"))),
        "m": ("m", _int(_POSITIVE)),
        "n": ("n", _int(_POSITIVE)),
        "o": ("o", _int(_POSITIVE)),
        "r": ("r", _int(_POSITIVE)),
        "delta": ("delta", _float(_UNIT)),
        "seed": ("seed", _int(_NONNEGATIVE)),
    },
    "init": {
        "scheme": ("scheme", _choice(("balanced", "zero_b"))),
        "scale": ("scale", _float(_NONNEGATIVE)),
        "perturbation": ("perturbation", _float(_NONNEGATIVE)),
        "seed": ("seed", _int(_NONNEGATIVE)),
    },
    "solver": {
        "scheme": ("scheme", _choice((s.value for s in Scheme), Scheme, lambda s: s.value)),
        "h": ("step_size", _float(_POSITIVE)),
        "iterations": ("iterations", _int(_NONNEGATIVE)),
        "eps_reg": ("eps_reg", _float(_NONNEGATIVE)),
    },
    "diagnostics": {key: (key, _BOOLEAN) for key in ("eps_ratio", "balance", "certificate")},
    "output": {"run_label": ("run_label", _Parser(str, "expected text"))},
}


def parse_value(name: str, raw):
    """The value of key ``name`` (``section.key``) given as ``raw``, checked
    by that key's parser; raises OutOfRange."""
    section, key = name.split(".")
    return SCHEMA[section][key][1](name, raw)


def set_value(cfg: ExperimentConfig, name: str, value) -> ExperimentConfig:
    """``cfg`` with key ``name`` (``section.key``) set to a parsed value."""
    section, key = name.split(".")
    spec = replace(getattr(cfg, section), **{SCHEMA[section][key][0]: value})
    return replace(cfg, **{section: spec})


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; omitted keys take their defaults."""
    parser = configparser.RawConfigParser()
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.ParsingError as err:
        line = err.errors[0][0] if getattr(err, "errors", None) else None
        raise ParseError(str(err).splitlines()[0], line) from err
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError) as err:
        raise ParseError(str(err), err.lineno) from err
    except configparser.Error as err:
        raise ParseError(str(err)) from err

    for section in parser.sections():
        if section not in SCHEMA:
            raise UnknownKey(f"[{section}]")
    cfg = ExperimentConfig()
    for section, keys in SCHEMA.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            name = f"{section}.{key}"
            if key not in keys:
                raise UnknownKey(name)
            cfg = set_value(cfg, name, parse_value(name, raw))

    prob = cfg.problem
    if not parser.has_option("problem", "o"):
        prob = replace(prob, o=prob.n)  # square sensing unless asked otherwise
    if prob.r > min(prob.m, prob.n):
        raise OutOfRange("problem.r", f"rank {prob.r} exceeds min(m, n) = {min(prob.m, prob.n)}")
    if prob.o > prob.n:
        raise OutOfRange("problem.o", f"o = {prob.o} exceeds n = {prob.n}")
    if prob.kind == "regression" and cfg.init.scheme == "zero_b" and prob.n < 2:
        # every row of A would be parallel to the feature it is aligned with
        raise OutOfRange("problem.n",
                         f"a zero_b start on a regression needs n >= 2, got {prob.n}")
    return replace(cfg, problem=prob)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config in the same sectioned format parse_config reads."""
    blocks = []
    for section, keys in SCHEMA.items():
        spec = getattr(cfg, section)
        lines = [f"[{section}]"] + [
            f"{key} = {parser.render(getattr(spec, attr))}" for key, (attr, parser) in keys.items()
        ]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
