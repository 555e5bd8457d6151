"""Experiment configuration: a sectioned key=value format with strict keys.

The on-disk format is INI-style: section headers in square brackets, one
``key = value`` per line, ``#`` comments. Every key is optional and has a
documented default; unknown sections or keys are rejected so typos cannot
silently fall back to defaults. ``serialize_config(parse_config(text))``
re-parses to an equal config.
"""

from __future__ import annotations

import configparser
import io
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


_PROBLEM_KINDS = ("sensing", "quadratic", "regression")
_INIT_SCHEMES = ("balanced", "zero_b")


def _parse_int(section, key, raw, positive=False):
    try:
        value = int(raw)
    except ValueError:
        raise OutOfRange(f"{section}.{key}", f"expected an integer, got {raw!r}")
    if positive and value <= 0:
        raise OutOfRange(f"{section}.{key}", f"must be positive, got {value}")
    return value


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise OutOfRange(f"{section}.{key}", f"expected a number, got {raw!r}")


def _parse_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise OutOfRange(f"{section}.{key}", f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; omitted keys take their defaults."""
    parser = configparser.RawConfigParser()
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.ParsingError as err:
        line = err.errors[0][0] if getattr(err, "errors", None) else None
        raise ParseError(str(err).splitlines()[0], line) from err
    except configparser.DuplicateOptionError as err:
        raise ParseError(str(err), getattr(err, "lineno", None)) from err
    except configparser.DuplicateSectionError as err:
        raise ParseError(str(err), getattr(err, "lineno", None)) from err
    except configparser.Error as err:
        raise ParseError(str(err)) from err

    known_sections = ("problem", "init", "solver", "diagnostics", "output")
    for section in parser.sections():
        if section not in known_sections:
            raise UnknownKey(f"[{section}]")

    def items(section):
        return dict(parser.items(section)) if parser.has_section(section) else {}

    cfg = ExperimentConfig()

    values = items("problem")
    prob = cfg.problem
    for key, raw in values.items():
        if key == "kind":
            if raw not in _PROBLEM_KINDS:
                raise OutOfRange("problem.kind", f"must be one of {_PROBLEM_KINDS}, got {raw!r}")
            prob = replace(prob, kind=raw)
        elif key in ("m", "n", "o", "r"):
            prob = replace(prob, **{key: _parse_int("problem", key, raw, positive=True)})
        elif key == "delta":
            value = _parse_float("problem", key, raw)
            if not 0.0 <= value < 1.0:
                raise OutOfRange("problem.delta", f"must be in [0, 1), got {value}")
            prob = replace(prob, delta=value)
        elif key == "seed":
            prob = replace(prob, seed=_parse_int("problem", key, raw))
        else:
            raise UnknownKey(f"problem.{key}")
    if "o" not in values:
        prob = replace(prob, o=prob.n)  # square sensing unless asked otherwise
    if prob.r > min(prob.m, prob.n):
        raise OutOfRange("problem.r", f"rank {prob.r} exceeds min(m, n) = {min(prob.m, prob.n)}")
    if prob.o > prob.n:
        raise OutOfRange("problem.o", f"o = {prob.o} exceeds n = {prob.n}")

    values = items("init")
    init = cfg.init
    for key, raw in values.items():
        if key == "scheme":
            if raw not in _INIT_SCHEMES:
                raise OutOfRange("init.scheme", f"must be one of {_INIT_SCHEMES}, got {raw!r}")
            init = replace(init, scheme=raw)
        elif key in ("scale", "perturbation"):
            value = _parse_float("init", key, raw)
            if value < 0:
                raise OutOfRange(f"init.{key}", f"must be nonnegative, got {value}")
            init = replace(init, **{key: value})
        elif key == "seed":
            init = replace(init, seed=_parse_int("init", key, raw))
        else:
            raise UnknownKey(f"init.{key}")

    values = items("solver")
    scheme = cfg.solver.scheme
    step_size = cfg.solver.step_size
    iterations = cfg.solver.iterations
    eps_reg = cfg.solver.eps_reg
    for key, raw in values.items():
        if key == "scheme":
            try:
                scheme = Scheme(raw)
            except ValueError:
                names = tuple(s.value for s in Scheme)
                raise OutOfRange("solver.scheme", f"must be one of {names}, got {raw!r}")
        elif key == "h":
            step_size = _parse_float("solver", key, raw)
            if step_size <= 0:
                raise OutOfRange("solver.h", f"must be positive, got {step_size}")
        elif key == "iterations":
            value = _parse_int("solver", key, raw)
            if value < 0:
                raise OutOfRange("solver.iterations", f"must be nonnegative, got {value}")
            iterations = value
        elif key == "eps_reg":
            eps_reg = _parse_float("solver", key, raw)
            if eps_reg < 0:
                raise OutOfRange("solver.eps_reg", f"must be nonnegative, got {eps_reg}")
        else:
            raise UnknownKey(f"solver.{key}")
    solver = SolverConfig(scheme=scheme, step_size=step_size, iterations=iterations, eps_reg=eps_reg)

    values = items("diagnostics")
    diag = cfg.diagnostics
    for key, raw in values.items():
        if key in ("eps_ratio", "balance", "certificate"):
            diag = replace(diag, **{key: _parse_bool("diagnostics", key, raw)})
        else:
            raise UnknownKey(f"diagnostics.{key}")

    values = items("output")
    out = cfg.output
    for key, raw in values.items():
        if key == "run_label":
            out = replace(out, run_label=raw)
        else:
            raise UnknownKey(f"output.{key}")

    return ExperimentConfig(problem=prob, init=init, solver=solver, diagnostics=diag, output=out)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config in the same sectioned format parse_config reads."""
    buf = io.StringIO()
    buf.write("[problem]\n")
    buf.write(f"kind = {cfg.problem.kind}\n")
    for key in ("m", "n", "o", "r"):
        buf.write(f"{key} = {getattr(cfg.problem, key)}\n")
    buf.write(f"delta = {cfg.problem.delta!r}\n")
    buf.write(f"seed = {cfg.problem.seed}\n\n")
    buf.write("[init]\n")
    buf.write(f"scheme = {cfg.init.scheme}\n")
    buf.write(f"scale = {cfg.init.scale!r}\n")
    buf.write(f"perturbation = {cfg.init.perturbation!r}\n")
    buf.write(f"seed = {cfg.init.seed}\n\n")
    buf.write("[solver]\n")
    buf.write(f"scheme = {cfg.solver.scheme.value}\n")
    buf.write(f"h = {cfg.solver.step_size!r}\n")
    buf.write(f"iterations = {cfg.solver.iterations}\n")
    buf.write(f"eps_reg = {cfg.solver.eps_reg!r}\n\n")
    buf.write("[diagnostics]\n")
    for key in ("eps_ratio", "balance", "certificate"):
        buf.write(f"{key} = {str(getattr(cfg.diagnostics, key)).lower()}\n")
    buf.write("\n[output]\n")
    buf.write(f"run_label = {cfg.output.run_label}\n")
    return buf.getvalue()
