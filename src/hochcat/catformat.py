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


def load_category(path) -> FiniteCategory:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CategoryFormatError(
            f"line {lineno}: not UTF-8 text (byte {data[exc.start]:#04x})", line=lineno
        ) from None
    return parse_category(text)


def category_to_text(cat: FiniteCategory) -> str:
    """Serialize in declaration order; identity compositions are omitted."""
    lines = []
    for name in cat.object_names:
        lines.append(f"object {name}")
    for m, name in enumerate(cat.morphism_names):
        src = cat.object_names[cat.source[m]]
        tgt = cat.object_names[cat.target[m]]
        suffix = " identity" if cat.is_identity(m) else ""
        lines.append(f"morphism {name} : {src} -> {tgt}{suffix}")
    for g in range(cat.n_morphisms):
        if cat.is_identity(g):
            continue
        for f in range(cat.n_morphisms):
            if cat.is_identity(f):
                continue
            h = cat.compose(g, f)
            if h >= 0:
                lines.append(
                    f"compose {cat.morphism_names[g]} {cat.morphism_names[f]}"
                    f" = {cat.morphism_names[h]}"
                )
    return "\n".join(lines) + "\n"
