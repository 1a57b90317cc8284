"""Command-line front end.

A job is described by a flat UTF-8 config file of ``key = value`` lines
(values: bare words, exact rationals ``[+-]?[0-9]+(/[0-9]+)?`` with a
nonzero denominator, like ``5`` or ``3/2``, and bracketed arrays, nested
once for matrices and refused deeper, with no empty element, a trailing
comma included; decimals, exponents and underscores are rejected so that
exactness survives the I/O boundary).  ``KEYS`` gives the shape of every
key.  ``check_job`` alone refuses a job's text, before any root system is
built: a key that its verb and ``k`` kind do not read, a missing key, and
a weight or k data whose size does not fit the ranks read off its type.
The verb and the ``--cutoff`` and ``--max-weyl`` flags are values of the
keys ``command``, ``cutoff`` and ``max_weyl``, read in the same grammar
and to the same shape; a flag wins over its key, which is still parsed,
and ``--cutoff`` given to a verb that draws no table is refused.

Verbs: pair-info, parabolic, generic-check, sl2-threshold, fundseries,
verify.  Output is a human-readable report, a machine-readable JSON
document with canonical ordering (byte-identical across runs), or both.

Exit codes: 0 success, 1 internal error (any other exception, a fault of
the program, printed as one ``internal error: ...`` line with nothing on
stdout), 2 parse error (every refusal of the command line or the config,
one ``parse error: ...`` line), 3 validation error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from .fundseries import (
    MultiplicityTable,
    infinitesimal_character,
    ktype_table,
    series_parabolic,
    verify_minimal_ktype,
)
from .genericity import GenericityReport, is_generic, norm2_shifted, sl2_threshold
from .parabolic import CompatibleParabolic, compatible_parabolic
from .reductive import (
    ReductivePair,
    check_sizes,
    make_cartan_pair,
    make_explicit_pair,
    make_levi_pair,
    make_sl2_pair,
)
from .rootsystem import CapExceeded, LieType, build_root_system, refuse_weyl_order
from .weights import Weight, WeightMultiset, add, neg, scale

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4


class ConfigError(Exception):
    """The job description cannot be parsed."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _parse_rational(token: str) -> Fraction:
    """An integer or p/q; exponents, underscores and decimals are refused."""
    if not _RATIONAL.fullmatch(token):
        raise ConfigError(f"not an exact rational (an integer or p/q, q > 0): "
                          f"{token!r}")
    return Fraction(token)


def _parse_scalar(token: str):
    token = token.strip()
    if not token:
        raise ConfigError("empty value")
    head = token[0]
    if head.isdigit() or head in "+-":
        return _parse_rational(token)
    return token


def _parse_value(text: str, key: str, depth: int = 2):
    """A scalar, or an array nested at most depth levels deep."""
    text = text.strip()
    if not text.startswith("["):
        return _parse_scalar(text)
    if depth == 0:
        raise ConfigError(f"config key {key!r} nests arrays more than two "
                          f"levels deep")
    if not text.endswith("]"):
        raise ConfigError(f"unterminated array: {text!r}")
    body = text[1:-1]
    if not body.strip():
        return []
    # split at top-level commas only; every part, the last included, is nonempty
    cuts, level = [-1], 0
    for i, ch in enumerate(body):
        if ch == "[":
            level += 1
        elif ch == "]":
            level -= 1
            if level < 0:
                raise ConfigError(f"unbalanced brackets in {text!r}")
        elif ch == "," and level == 0:
            cuts.append(i)
    if level != 0:
        raise ConfigError(f"unbalanced brackets in {text!r}")
    cuts.append(len(body))
    items = []
    for start, end in zip(cuts, cuts[1:]):
        part = body[start + 1:end]
        if not part.strip():
            raise ConfigError(f"empty array element in {text!r}")
        items.append(_parse_value(part, key, depth - 1))
    return items


def parse_config(text: str) -> dict:
    job: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in job:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        job[key] = _parse_value(value, key)
    return job


def _require(job: dict, key: str):
    if key not in job:
        raise ConfigError(f"missing required config key {key!r}")
    return job[key]


# ---------------------------------------------------------------------------
# the config schema: the shape of every key, and the keys each verb and
# each k kind reads


def _shape(shape: str, test, convert=None):
    """The parser of a key whose value must pass test, then convert(value, key)."""
    def parse(value, key: str):
        if not test(value):
            raise ConfigError(f"config key {key!r} must be {shape}, got {_fmt(_ser(value))}")
        return value if convert is None else convert(value, key)
    return parse


def _is_array(value, depth: int = 1) -> bool:
    """value is an array of rationals, nested depth deep."""
    if depth == 0:
        return isinstance(value, Fraction)
    return isinstance(value, list) and all(_is_array(v, depth - 1) for v in value)


_WORD = _shape("a word", lambda v: isinstance(v, str))
_INTEGER = _shape("an integer", lambda v: isinstance(v, Fraction) and v.denominator == 1,
                  lambda v, key: int(v))
_INTEGERS = _shape("an array of rationals", _is_array,
                   lambda v, key: [_INTEGER(x, key) for x in v])
_WEIGHT = _shape("a rational or an array of rationals",
                 lambda v: isinstance(v, Fraction) or _is_array(v))
_MATRIX = _shape("an array of arrays of rationals", lambda v: _is_array(v, 2))


def _word(*choices: str):
    """The parser of a bare word that must be one of choices."""
    one_of = _shape("one of " + ", ".join(choices), lambda v: v in choices)
    return lambda value, key: one_of(_WORD(value, key), key)


def _weyl_cap(value, key: str) -> int:
    if (cap := _INTEGER(value, key)) < 1:
        raise ConfigError(f"the Weyl group cap must be at least 1, got {cap}")
    return cap


_JOB_KEYS = ("lie_type", "k", "command", "max_weyl")   # read by every job
_TABLE_KEYS = ("nu", "nu_basis", "lambda", "cutoff")
VERB_KEYS = {"pair-info": (), "parabolic": ("lambda", "mu"), "generic-check": ("mu",),
             "sl2-threshold": (), "fundseries": _TABLE_KEYS, "verify": _TABLE_KEYS}
KIND_KEYS = {"sl2": ("labels",), "cartan": (), "levi": ("nodes",),
             "explicit": ("restriction", "k_simple_roots", "k_coroots")}
COMMANDS = tuple(VERB_KEYS)
_REQUIRED = {"generic-check": ("mu",), "fundseries": ("nu",), "verify": ("nu",)}

KEYS = {
    "lie_type": _WORD, "k": _word(*KIND_KEYS), "labels": _INTEGERS, "nodes": _INTEGERS,
    "restriction": _MATRIX, "k_simple_roots": _MATRIX, "k_coroots": _MATRIX,
    "command": _word(*COMMANDS), "mu": _WEIGHT, "lambda": _WEIGHT, "nu": _WEIGHT,
    "nu_basis": _word("simple", "fundamental"),
    "cutoff": _shape("a rational", lambda v: isinstance(v, Fraction)), "max_weyl": _weyl_cap,
}
CONFIG_KEYS = tuple(KEYS)


def check_job(job: dict, command: str | None) -> tuple[dict, str]:
    """Parse every key of a read config to its shape, resolve the verb and
    make every refusal of the job's text, all before any root system is
    built: a key that the verb and the k kind do not read, a missing key,
    and a weight or k data whose size does not fit the ranks read off lie_type."""
    for key in job:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    job = {key: KEYS[key](value, key) for key, value in job.items()}
    command = command or job.get("command")
    if command is None:
        raise ConfigError("no command verb given on the command line or in the config")
    if job.get("command", command) != command:
        raise ConfigError(f"command line says {command!r} but config says {job['command']!r}")
    kind = _require(job, "k")
    read = _JOB_KEYS + VERB_KEYS[command] + KIND_KEYS[kind]
    for key in job:
        if key not in read:
            raise ConfigError(f"config key {key!r} is not read by {command} with k = {kind}")
    for key in ("lie_type", *KIND_KEYS[kind], *_REQUIRED.get(command, ())):
        _require(job, key)
    if command == "parabolic" and ("lambda" in job) == ("mu" in job):
        raise ConfigError("the parabolic command needs exactly one of 'lambda' and 'mu'")
    if isinstance(nu := job.get("nu"), Fraction) and "nu_basis" in job:
        raise ConfigError("config key 'nu_basis' is not read with a scalar nu")
    rank_g = LieType.parse(job["lie_type"]).rank   # a ValueError, exit 3; no root is built
    rank_t = 1 if kind == "sl2" else len(job["restriction"]) if kind == "explicit" else rank_g
    if isinstance(nu, Fraction) and rank_t != 1:
        raise ConfigError("scalar nu needs a rank-one small side")
    if isinstance(nu, list) and len(nu) != rank_g:
        raise ConfigError(f"nu must have {rank_g} coordinates")
    for key in ("mu", "lambda"):   # parabolic reads one of them, the other verbs at most one
        if isinstance(job.get(key), Fraction) and rank_t != 1:
            raise ConfigError(f"{key!r} was a scalar but the small side has rank {rank_t}")
        if isinstance(job.get(key), list) and len(job[key]) != rank_t:
            raise ConfigError(f"{key!r} must have {rank_t} coordinates")
    try:   # the factories' checks of the k data's sizes, from the text
        check_sizes(rank_g, job.get("labels"), set(job.get("nodes", ())),
                    job.get("restriction"), job.get("k_simple_roots"), job.get("k_coroots"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return job, command


def build_pair(job: dict) -> ReductivePair:
    g = build_root_system(job["lie_type"])
    kind = job["k"]
    if kind == "sl2":
        return make_sl2_pair(g, job["labels"])
    if kind == "levi":
        return make_levi_pair(g, set(job["nodes"]))
    if kind == "explicit":
        return make_explicit_pair(g, job["restriction"], job["k_simple_roots"], job["k_coroots"])
    return make_cartan_pair(g)


def _as_tweight(value) -> Weight:
    """A small-side weight: a coordinate array, or a scalar when rank 1."""
    return (value,) if isinstance(value, Fraction) else tuple(value)


def _as_gweight(value, p: ReductivePair, basis: str | None) -> Weight:
    """An ambient-side weight in the given basis (simple by default); a
    scalar is read as the restriction value of a rank-one small side and
    lifted orthogonally, and takes no basis."""
    if isinstance(value, Fraction):
        return p.lift_weight((value,))
    return p.g.from_fundamental(tuple(value)) if basis == "fundamental" else tuple(value)


# ---------------------------------------------------------------------------
# serialization: _ser makes results JSON-ready, and _json writes them as json.dumps(...,
# sort_keys=True, indent=2, ensure_ascii=False) would, but on the C string encoder


def _ser(value):
    """Canonical JSON-ready form: fractions as 'p/q' strings, weights as
    arrays, multisets as sorted weight/mult records."""
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    if isinstance(value, WeightMultiset):   # by int row: D > 0 keeps the order
        rows, den = value.integers
        names = {a: str(Fraction(a, den)) for a in set().union(*rows)}
        return [{"weight": [names[a] for a in row], "mult": m} for row, m in sorted(rows.items())]
    if isinstance(value, dict):
        return {k: _ser(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


def _json(value, indent: str = "\n") -> str:
    """The canonical JSON text of a _ser result, indent opening each line."""
    kind, inner = type(value), indent + "  "
    if kind is str:
        return encode_basestring(value)
    if kind is dict:
        items = [encode_basestring(k) + ": " + _json(value[k], inner) for k in sorted(value)]
    elif kind is list or kind is tuple:
        items = [encode_basestring(v) if type(v) is str else _json(v, inner) for v in value]
    else:   # an int, a boolean or None; json.dumps refuses any other type
        return int.__repr__(value) if kind is int else json.dumps(value)
    ends = "{}" if kind is dict else "[]"
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _fmt(value) -> str:
    """Human rendering of an already-serialized value."""
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _pair_doc(p: ReductivePair) -> dict:
    # delta_t in the order of its int rows, its weights times one positive scale
    delta_t = sorted({x for r in p.restricted_integers if any(r) for x in (r, neg(r))})
    names = {a: str(Fraction(a, p.restriction_integers[1])) for a in set().union(*delta_t)}
    return {
        "embedding": p.embedding_kind,
        "rank_g": p.g.rank,
        "rank_t": p.rank_t,
        "restriction": _ser(p.restriction),
        "t_gram": _ser(p.t_gram),
        "delta_t": [[names[a] for a in row] for row in delta_t],
        "k_simple_roots": _ser(list(p.k_simple_roots)),
        "k_positive_roots": _ser(sorted(p.k_positive_roots)),
        "rho": _ser(p.rho),
    }


def _parabolic_doc(p: ReductivePair, parab: CompatibleParabolic) -> dict:
    return {
        "lambda": _ser(parab.lam),
        "minimal": parab.minimal,
        "s": parab.s,
        "r": parab.r,
        "rho_n": _ser(parab.rho_n),
        "rho_n_perp": _ser(parab.rho_n_perp),
        "ch_t_n": _ser(parab.ch_t_n),
        "ch_t_n_cap_k": _ser(parab.ch_t_n_cap_k),
        "ch_t_n_cap_kperp": _ser(parab.ch_t_n_cap_kperp),
        "n_roots": _ser(sorted(parab.n_roots, key=lambda r: [c.numerator for c in r])),
        "m_positive_roots": _ser(parab.m_positive_roots()),
    }


def _genericity_doc(report: GenericityReport, mu: Weight) -> dict:
    return {
        "mu": _ser(mu),
        "holds": report.holds,
        "condition1_ok": report.condition1_ok,
        "condition2_ok": report.condition2_ok,
        "witness_root": _ser(report.witness_root),
        "witness_submultiset": _ser(report.witness_submultiset),
        "witness_rho_s": _ser(report.witness_rho_s),
        "lambda": _ser(report.lam),
        "rho_n": _ser(report.rho_n),
    }


def _table_doc(table: MultiplicityTable) -> dict:
    return {
        "s": table.s,
        "r": table.r,
        "cutoff": _ser(table.cutoff),
        "mu": _ser(table.mu),
        "dim_e": table.dim_e,
        "entries": [   # in sorted_entries() order, as ktype_table inserts them
            {"delta": _ser(delta), "mult": mult, "norm2_shifted": _ser(norm)}
            for (delta, mult), norm in zip(table.entries.items(), table.norms.values())
        ],
    }


# ---------------------------------------------------------------------------
# job execution


def run_job(job: dict, command: str) -> dict:
    p = build_pair(job)
    if "max_weyl" in job:
        # guard: refuse jobs whose small Weyl group is larger than the cap,
        # its order read off the k-root heights without enumerating it
        refuse_weyl_order(p.k_weyl_order, job["max_weyl"])
    doc: dict = {"job": {"lie_type": job["lie_type"], "k": job["k"], "command": command}}

    if command == "pair-info":
        doc["pair"] = _pair_doc(p)
        return doc

    if command == "parabolic":
        lam = (_as_tweight(job["lambda"]) if "lambda" in job
               else add(_as_tweight(job["mu"]), scale(2, p.rho)))
        doc["parabolic"] = _parabolic_doc(p, compatible_parabolic(p, lam))
        return doc

    if command == "generic-check":
        mu = _as_tweight(job["mu"])
        doc["genericity"] = _genericity_doc(is_generic(p, mu), mu)
        return doc

    if command == "sl2-threshold":
        value = sl2_threshold(p)
        doc["threshold"] = {
            "value": value,
            "statement": f"generic iff m >= {value - 1}",
        }
        return doc

    # fundseries or verify
    nu = _as_gweight(job["nu"], p, job.get("nu_basis"))
    lam = _as_tweight(job["lambda"]) if "lambda" in job else None
    parab, e = series_parabolic(p, nu, lam)
    cutoff = job.get("cutoff")
    if cutoff is None:
        # generous default: the minimal norm plus 100 units of the rho norm,
        # or plus 100 when the subalgebra has no roots at all
        rho2 = p.t_pair(p.rho, p.rho)
        cutoff = norm2_shifted(p, e.mu) + 100 * (rho2 if rho2 else Fraction(1))
    table = ktype_table(p, parab, e, cutoff)
    doc["parabolic"] = _parabolic_doc(p, parab)
    doc["table"] = _table_doc(table)
    doc["character"] = {
        "nu": _ser(e.nu),
        "omega": _ser(e.omega),
        "representative": _ser(infinitesimal_character(p.g, e)),
    }
    if command == "verify":
        report = verify_minimal_ktype(table, e, p)
        generic = None
        if p.is_dominant_integral(e.mu):
            generic = is_generic(p, e.mu).holds
        doc["verify"] = {
            "minimal_entry_ok": report.minimal_entry_ok,
            "unique_minimum_ok": report.unique_minimum_ok,
            "nonnegative_ok": report.nonnegative_ok,
            "all_ok": report.all_ok,
            "generic": generic,
            "rho_identity_ok": parab.rho_n == add(p.rho, parab.rho_n_perp),
            "degree_sum_ok": parab.s + parab.r == parab.ch_t_n.size(),
        }
    return doc


# ---------------------------------------------------------------------------
# rendering


def _human_lines(doc: dict) -> list[str]:
    lines: list[str] = []
    for section, body in doc.items():
        lines.append(f"[{section}]")
        if section == "table":
            for key in ("s", "r", "cutoff", "mu", "dim_e"):
                lines.append(f"  {key} = {_fmt(body[key])}")
            lines.append("  delta : mult : |delta + 2 rho|^2")
            for entry in body["entries"]:
                lines.append(
                    f"  {_fmt(entry['delta'])} : {entry['mult']} : "
                    f"{entry['norm2_shifted']}"
                )
        else:
            for key, value in body.items():
                lines.append(f"  {key} = {_fmt(value)}")
        lines.append("")
    return lines


def emit(doc: dict, mode: str, out) -> None:
    if mode in ("human", "both"):
        out.write("\n".join(_human_lines(doc)))
    if mode == "both":
        out.write("--- machine ---\n")
    if mode in ("machine", "both"):
        out.write(_json(doc) + "\n")


class _Parser(argparse.ArgumentParser):
    """Collects strings only; a refusal raises ConfigError, with no usage text."""

    def error(self, message: str):
        raise ConfigError(message)


# built once, at import; each parse_args call returns a fresh namespace
_PARSER = _Parser(
    prog="redpair",
    description="exact k-type computations for reductive pairs",
)
_PARSER.add_argument("command", nargs="?", help="job verb, one of " + ", ".join(COMMANDS)
                     + "; may also come from the config file")
_PARSER.add_argument("--config", required=True, help="path to the job config")
_PARSER.add_argument("--cutoff", help="norm cutoff for tables, as an exact rational")
_PARSER.add_argument("--max-weyl", help="cap on the order of the small Weyl group")
_PARSER.add_argument("--emit", choices=("human", "machine", "both"), default="human")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # the verb, --cutoff and --max-weyl are config values: one grammar, one schema
        flags = {key: KEYS[key](_parse_value(text, key), key)
                 for key, text in vars(args).items() if key in KEYS and text is not None}
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid UTF-8: {exc}") from None
        job, command = check_job(parse_config(text), flags.pop("command", None))
        if "cutoff" in flags and "cutoff" not in VERB_KEYS[command]:
            raise ConfigError(f"option '--cutoff' is not read by {command}")
        doc = run_job(job | flags, command)   # the flags win over the keys
    except ConfigError as exc:   # a flag may hold a newline; the reason stays one line
        print(f"parse error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:   # repr keeps the message on one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    emit(doc, args.emit, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
