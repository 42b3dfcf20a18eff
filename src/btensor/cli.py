"""Command-line front-end.

Grammar::

    btensor <verb> [--method M] [--restarts R] [--seed S] [--tol T] [--out PATH] INPUT.json

Verbs: classify, decompose, intervals, oracle, laplacian, definiteness.
Inputs use the tensor JSON format (laplacian takes the hypergraph format
instead).  Reports go to standard output as JSON; failures print an error
JSON object on standard error and exit with 2 (input or parse errors, or an
``--out`` path that cannot be written), 3 (precondition or class-violation
errors, or a result outside the float range, which strict JSON cannot
carry) or 1 (an internal error: a result that failed its own
post-construction check).  A witness on an error line writes each
non-finite side as ``null``.

Reports are ``json.dumps(report, indent=2, allow_nan=False)`` byte for
byte, written by ``_ReportEncoder``, which joins each list of floats in one
call instead of taking json's pure-Python path for ``indent``.  A list of
at least 1024 floats with at most half as many runs of equal values, such
as a split's C part (each row's r_plus, repeated), formats each run once:
the C list of a (5, 7) tensor, 16807 floats in 19 runs, is joined in 1.1 ms
instead of 9.7 ms.  A list whose first 64 items mostly differ, such as a
split's B part, skips the scan, which costs 0.4 to 0.8 ms on 10**4 floats.
``main`` builds its argument parser once per process, so a caller that
runs it many times pays for argparse once.

A desk call is a cold process, so each verb imports only the layer
modules it runs, when it runs: ``classify`` imports classes, ``decompose``
decompose (with classes), ``intervals``, ``laplacian`` and
``definiteness`` eigenloc (with classes), and ``oracle`` oracle alone;
core and errors load for every verb.  Without a bytecode cache, a cold
``python -m btensor.cli classify`` on T43 took a median 298 ms instead of
326 ms when every layer loaded (40 alternating pairs, 2 shared x86-64
CPUs).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import ne

import numpy as np

from .core import Tensor
from .errors import (
    BTensorError,
    ClassViolationError,
    DegenerateMarginError,
    InputError,
    InternalError,
    PreconditionError,
)


class _IntervalMethods(dict):
    """Each ``intervals --method`` with the name of its eigenloc function.
    Looking a method up returns that function, importing eigenloc then."""

    def __getitem__(self, method):
        from . import eigenloc
        return getattr(eigenloc, dict.__getitem__(self, method))


_INTERVAL_METHODS = _IntervalMethods({
    "z": "intervals_z",
    "even-sym": "intervals_even_symmetric",
    "odd-n2": "intervals_odd_or_n2",
    "gerschgorin": "intervals_gerschgorin",
})

#: Each error type with its kind on the error line and its exit status; a
#: subclass comes before its base, so the first match is the most specific.
_ERRORS = (
    (InputError, "input", 2),
    (ClassViolationError, "class-violation", 3),
    (DegenerateMarginError, "degenerate-margin", 3),
    (PreconditionError, "precondition", 3),
    (InternalError, "internal", 1),
)


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so every failure
    path can produce the machine-parseable error JSON."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser():
    parser = _Parser(prog="btensor", description="Structured tensor classes, "
                     "decompositions, and eigenvalue localization.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(verb, help_text):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("input", metavar="INPUT.json")
        p.add_argument("--out", default=None, help="write the report to PATH")
        return p

    add("classify", "evaluate every class predicate and report witnesses")

    p = add("decompose", "split into a Z-part plus a nonnegative part")
    p.add_argument("--method", required=True, choices=("b", "doubly-b"))

    p = add("intervals", "eigenvalue localization interval union")
    p.add_argument("--method", required=True, choices=tuple(_INTERVAL_METHODS))

    p = add("oracle", "H-eigenpairs: exhaustive for dim 2, heuristic search otherwise")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)

    add("laplacian", "hypergraph Laplacian tensor and its spectral bounds")
    add("definiteness", "sufficient positive (semi-)definiteness verdict")
    return parser


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _run(args):
    payload = _load_json(args.input)
    if args.verb == "laplacian":
        from . import eigenloc
        graph = eigenloc.Hypergraph.from_json_dict(payload)
        return {
            "tensor": eigenloc.laplacian_tensor(graph).to_json_dict(),
            "bounds": eigenloc.laplacian_bounds(graph).to_json_dict(),
        }
    tensor = Tensor.from_json_dict(payload)
    if args.verb == "classify":
        from . import classes
        return classes.classify(tensor).to_json_dict()
    if args.verb == "decompose":
        from . import decompose
        if args.method == "b":
            return decompose.decompose_b(tensor).to_json_dict()
        return decompose.decompose_doubly_b(tensor).to_json_dict()
    if args.verb == "intervals":
        return _INTERVAL_METHODS[args.method](tensor).to_json_dict()
    if args.verb == "oracle":
        from . import oracle
        if tensor.dim == 2:
            pairs = oracle.eigenpairs_n2(tensor, tol=args.tol)
        else:
            pairs = oracle.eigen_search(
                tensor, restarts=args.restarts, seed=args.seed, tol=args.tol)
        return [p.to_json_dict() for p in pairs]
    if args.verb == "definiteness":
        from . import eigenloc
        return eigenloc.definiteness(tensor).to_json_dict()
    raise InputError(f"unknown verb {args.verb!r}")


class _ReportEncoder(json.JSONEncoder):
    """Writes what ``json.JSONEncoder`` writes with an integer ``indent`` and
    ``allow_nan=False``, the other options at their defaults, for values whose
    dict keys are strings, but joins each list of floats in one call.  A
    non-finite float raises ``ValueError`` as json's encoder does."""

    def iterencode(self, o, _one_shot=False):
        chunks = []
        self._write(o, "\n", " " * self.indent, chunks)
        return chunks

    def _write(self, o, newline, indent, out):
        # the order of json's own type tests: bool before int, int before float
        if isinstance(o, str):
            out.append(encode_basestring_ascii(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            out.append(_float_text(o))
        elif isinstance(o, (list, tuple)):
            self._write_list(o, newline, indent, out)
        elif isinstance(o, dict):
            self._write_dict(o, newline, indent, out)
        else:
            self._write(self.default(o), newline, indent, out)

    def _write_list(self, items, newline, indent, out):
        if not items:
            out.append("[]")
            return
        inner = newline + indent
        separator = self.item_separator + inner
        out.append("[" + inner)
        try:
            text = _float_join(separator, items)
        except TypeError:  # an item that is not a float
            for k, item in enumerate(items):
                if k:
                    out.append(separator)
                self._write(item, inner, indent, out)
        else:
            if "n" in text:  # only "inf", "-inf" and "nan" hold an n
                for item in items:
                    _float_text(item)
            out.append(text)
        out.append(newline + "]")

    def _write_dict(self, obj, newline, indent, out):
        if not obj:
            out.append("{}")
            return
        inner = newline + indent
        separator = "{" + inner
        for key, value in obj.items():
            out.append(separator + encode_basestring_ascii(key) + self.key_separator)
            self._write(value, inner, indent, out)
            separator = self.item_separator + inner
        out.append(newline + "}")


def _float_join(separator, items):
    """``separator.join(map(float.__repr__, items))``.  A list of at least
    1024 exact floats that holds at most half as many runs of bitwise-equal
    items (0.0 and -0.0 differ) formats each run's value once.  A list whose
    first 64 items change value more often than not, such as a split's B
    part, is joined plainly without the scan; both paths write one text."""
    if (len(items) >= 1024 and 2 * sum(map(ne, items[:63], items[1:64])) <= 63
            and set(map(type, items)) == {float}):
        bits = np.fromiter(items, np.float64, len(items)).view(np.uint64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        del bits
        if 2 * len(starts) + 2 <= len(items):
            starts = [0, *starts.tolist()]
            counts = np.diff(starts, append=len(items)).tolist()
            texts = map(float.__repr__, map(items.__getitem__, starts))
            return separator.join(chain.from_iterable(map(repeat, texts, counts)))
        del starts
    return separator.join(map(float.__repr__, items))


def _float_text(x):
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _emit_error(code, exc):
    payload = {"error": code, "detail": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        payload["witness"] = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in witness.items()}
    print(json.dumps(payload, allow_nan=False), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = _run(args)
        try:
            text = json.dumps(report, cls=_ReportEncoder, indent=2, allow_nan=False)
        except ValueError:
            raise PreconditionError("the result exceeds the float range") from None
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                    handle.write("\n")
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
            sys.stdout.write("\n")
    except BTensorError as exc:
        _, kind, status = next(entry for entry in _ERRORS if isinstance(exc, entry[0]))
        _emit_error(kind, exc)
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
