"""tvcount transvect: the first transvectant of two binary forms."""

from .._frozen import max_digits
from . import EXIT_INVALID, EXIT_OK, EXIT_USAGE, _fail, _print_envelope


def run(args) -> int:
    from .. import forms

    # degrees from the comma counts: the work bound refuses before parsing
    m, n = args.f.count(","), args.g.count(",")
    if refused := forms.transvectant_refusal(m, n):
        return _fail(refused, EXIT_INVALID)
    build = forms.BinaryForm.from_binomial if args.binomial else forms.BinaryForm
    try:
        f = build(m, [part.strip() for part in args.f.split(",")])
        g = build(n, [part.strip() for part in args.g.split(",")])
    except ValueError as exc:
        return _fail(f"malformed coefficient list: {exc}", EXIT_USAGE)
    try:
        t = forms.transvectant(f, g)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    try:
        result = t.to_dict()
    except ValueError:  # str() of an int longer than the interpreter allows
        return _fail(f"result has a coefficient longer than {max_digits()} digits; too long to print", EXIT_INVALID)
    if args.json:
        inputs = {"f": args.f, "g": args.g, "binomial": bool(args.binomial)}
        _print_envelope("transvect", inputs, result, [])
    else:
        print(",".join(result["coeffs"]))
    return EXIT_OK
