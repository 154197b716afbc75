"""Line-oriented text format for finite categories.

::

    # comment
    object x1
    morphism id1 : x1 -> x1 identity
    morphism g : x1 -> x2
    compose g f = h        # meaning g∘f = h

Tokens are whitespace separated; ``#`` starts a comment.  Every object needs
exactly one identity-flagged endomorphism.  Compose lines must cover all
composable pairs of non-identity morphisms; pairs involving identities may
be omitted and are filled in by validation.
"""

from __future__ import annotations

from .category import FiniteCategory, RawCategory, validate_category
from .errors import CategoryFormatError
from .hochschild import check_table_size


def parse_category_text(text: str) -> RawCategory:
    raw = RawCategory()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "object":
            if len(tokens) != 2:
                raise CategoryFormatError(
                    f"line {lineno}: expected 'object <name>'", line=lineno
                )
            raw.objects.append(tokens[1])
        elif kind == "morphism":
            # morphism <name> : <src> -> <tgt> [identity]
            ok = (
                len(tokens) in (6, 7)
                and tokens[2] == ":"
                and tokens[4] == "->"
                and (len(tokens) == 6 or tokens[6] == "identity")
            )
            if not ok:
                raise CategoryFormatError(
                    f"line {lineno}: expected 'morphism <name> : <src> -> <tgt> [identity]'",
                    line=lineno,
                )
            raw.morphisms.append((tokens[1], tokens[3], tokens[5], len(tokens) == 7))
        elif kind == "compose":
            # compose <g> <f> = <h>
            if len(tokens) != 5 or tokens[3] != "=":
                raise CategoryFormatError(
                    f"line {lineno}: expected 'compose <g> <f> = <h>'", line=lineno
                )
            raw.compositions.append((tokens[1], tokens[2], tokens[4]))
        else:
            raise CategoryFormatError(
                f"line {lineno}: unknown directive {kind!r}", line=lineno
            )
    return raw


def parse_category(text: str) -> FiniteCategory:
    return validate_category(parse_category_text(text))


def load_category(path, cap: int | None = None) -> FiniteCategory:
    """Read, parse and validate a category file.

    A file whose composition table (``n_morphisms^2`` cells) passes ``cap``
    (default ``DEFAULT_BASIS_CAP``) is refused with DimensionCapExceeded
    after parsing, before validation allocates the table.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CategoryFormatError(
            f"line {lineno}: not UTF-8 text (byte {data[exc.start]:#04x})", line=lineno
        ) from None
    raw = parse_category_text(text)
    check_table_size(len(raw.morphisms) ** 2, cap)
    return validate_category(raw)


def category_to_text(cat: FiniteCategory) -> str:
    """Serialize in declaration order; identity compositions are omitted.

    Compose lines run over composable pairs only: for each non-identity g,
    the non-identity f into its source, in ascending index order.
    """
    names = cat.morphism_names
    lines = []
    for name in cat.object_names:
        lines.append(f"object {name}")
    for m, name in enumerate(names):
        src = cat.object_names[cat.source[m]]
        tgt = cat.object_names[cat.target[m]]
        suffix = " identity" if cat.is_identity(m) else ""
        lines.append(f"morphism {name} : {src} -> {tgt}{suffix}")
    into = [[f for f in fs if not cat.is_identity(f)] for fs in cat.morphisms_by_target]
    for g in range(cat.n_morphisms):
        if not cat.is_identity(g):
            for f in into[cat.source[g]]:
                lines.append(f"compose {names[g]} {names[f]} = {names[cat.compose(g, f)]}")
    return "\n".join(lines) + "\n"
