"""tvcount class: the pushed-forward fundamental class for (m, n).  The file
is class_.py since class is a keyword."""

from . import EXIT_INVALID, EXIT_OK, MAX_CLASS_TERMS, _fail, _over_budget, _print_envelope


def run(args) -> int:
    m, n = args.m, args.n
    if m > 0 and n > 0 and (refused := _over_budget("class", f"class for (m,n)=({m},{n})", m, n, MAX_CLASS_TERMS)):
        return _fail(refused, EXIT_INVALID)
    from .. import cycles

    try:
        cls = cycles.beta_pushforward(m, n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INVALID)
    if args.format == "json":
        _print_envelope("class", {"m": m, "n": n}, cls.to_dict(), [])
    elif args.format == "latex":
        print(cls.to_latex())
    else:
        print(cls)
    return EXIT_OK
