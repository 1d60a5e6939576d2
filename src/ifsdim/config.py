"""Plain-text system descriptions.

A config file is a sequence of `key = value` lines.  Values are rationals
("2/87", "3"), or bracketed lists of values, nested one level for
polynomial coordinates.  Lines starting with '#' (and trailing '#'
comments) are ignored.

Direct form::

    minpoly = [-1, 1, 1]
    isolating = [1/2, 2/3]
    translations = [[0], [1, -1]]
    probabilities = [1/2, 1/2]

Family shorthand::

    family = cantor                     # needs d, m
    family = bernoulli_simple_pisot     # needs k, p
    family = convolution                # needs d, base_probabilities, k

`parse_config` turns config text into a {key: value} dict, `build_system`
turns that dict into an `IFSSystem`, and `load_config` does both for a file.
`field_element` reads one parsed value, a rational or a non-empty
coefficient list, as a field element: a translation here, `--point` in the
command line.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldContext, FieldElement
from .ifs import (
    IFSSystem,
    bernoulli_simple_pisot,
    build_ifs,
    cantor_like,
    convolution_power,
)


class ConfigError(ValueError):
    """Malformed configuration text or invalid run parameters.

    Errors tied to a specific config line carry its number in `line`.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# -- parsing ------------------------------------------------------------------


def _split_items(text: str, lineno: int) -> list[str]:
    items = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigError("unbalanced brackets", lineno)
            current.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ConfigError("unbalanced brackets", lineno)
    tail = "".join(current).strip()
    if tail:
        items.append(tail)
    return items


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigError("empty value", lineno)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError("unbalanced brackets", lineno)
        return [
            _parse_value(item, lineno)
            for item in _split_items(text[1:-1], lineno)
        ]
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text


def parse_config(text: str) -> dict:
    """Parse config text into a {key: value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("missing key", lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        out[key] = _parse_value(value, lineno)
    return out


# -- system construction --------------------------------------------------------


def _as_int(cfg: dict, key: str) -> int:
    value = cfg[key]
    if not isinstance(value, Fraction) or value.denominator != 1:
        raise ConfigError(f"key {key!r} must be an integer")
    return int(value)


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing key {key!r}")


def _fraction_list(cfg: dict, key: str) -> list[Fraction]:
    value = cfg[key]
    if not isinstance(value, list) or not all(
        isinstance(v, Fraction) for v in value
    ):
        raise ConfigError(f"key {key!r} must be a list of rationals")
    return value


def field_element(context: FieldContext, value, error: str) -> FieldElement:
    """The element that a parsed value names, or ConfigError(error).

    The value is a rational, or a non-empty list of rational polynomial
    coefficients in rho; an empty list names no element.
    """
    if isinstance(value, Fraction):
        return context.from_rational(value)
    if isinstance(value, list) and value and all(isinstance(c, Fraction) for c in value):
        return context.element(value)
    raise ConfigError(error)


def build_system(cfg: dict) -> IFSSystem:
    """Construct an IFSSystem from a parsed config dict."""
    known = {
        "family", "d", "m", "k", "p", "base_probabilities",
        "minpoly", "isolating", "translations", "probabilities",
    }
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")
    family = cfg.get("family")
    if family is not None:
        if family == "cantor":
            _require(cfg, "d", "m")
            probs = _fraction_list(cfg, "probabilities") if "probabilities" in cfg else None
            return cantor_like(_as_int(cfg, "d"), _as_int(cfg, "m"), probs)
        if family == "bernoulli_simple_pisot":
            _require(cfg, "k", "p")
            if not isinstance(cfg["p"], Fraction):
                raise ConfigError("key 'p' must be a rational")
            return bernoulli_simple_pisot(_as_int(cfg, "k"), cfg["p"])
        if family == "convolution":
            _require(cfg, "d", "k", "base_probabilities")
            return convolution_power(
                _as_int(cfg, "d"),
                _fraction_list(cfg, "base_probabilities"),
                _as_int(cfg, "k"),
            )
        raise ConfigError(f"unknown family {family!r}")

    _require(cfg, "minpoly", "translations")
    minpoly = _fraction_list(cfg, "minpoly")
    isolating = None
    if "isolating" in cfg:
        isolating = _fraction_list(cfg, "isolating")
        if len(isolating) != 2:
            raise ConfigError("key 'isolating' must be [lo, hi]")
    context = FieldContext(minpoly, isolating)
    raw = cfg["translations"]
    if not isinstance(raw, list):
        raise ConfigError("key 'translations' must be a list")
    translations = [
        field_element(
            context,
            entry,
            "each translation must be a rational or a list of "
            "polynomial coefficients in rho",
        )
        for entry in raw
    ]
    probs = _fraction_list(cfg, "probabilities") if "probabilities" in cfg else None
    return build_ifs(context, translations, probs)


def load_config(path: str) -> IFSSystem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_system(parse_config(text))
