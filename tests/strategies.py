"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import strategies as st

from lemmakit.terms import TCon, fun, render_type

# Each builtin's argument kinds, then its result kind.
_BUILTIN_KINDS = {
    **dict.fromkeys(["int_add", "int_sub", "int_mul", "int_pow"], ("int", "int", "int")),
    "int_le": ("int", "int", "bool"),
    **dict.fromkeys(["bool_and", "bool_or", "bool_implies"], ("bool", "bool", "bool")),
    "bool_not": ("bool", "bool"),
    "list_append": ("list", "list", "list"),
    "list_rev": ("list", "list"),
    "list_len": ("list", "int"),
    "totient": ("int", "int"),
}
_LOGIC_NAMES = ["HOL.eq", "HOL.Not", "HOL.conj", "HOL.disj", "HOL.implies", "HOL.True",
                "HOL.False"]

# A sort declaration without its name, and its kind.
_sort_decls = st.one_of(
    st.builds(lambda m: ({"mod": m}, "int"), st.integers(1, 50)),
    st.builds(lambda lo, hi: ({"min": min(lo, hi), "max": max(lo, hi)}, "int"),
              st.integers(-5, 9), st.integers(-5, 9)),
    st.just(({"kind": "bool"}, "bool")),
    st.builds(lambda n, m: ({"max_len": n, "elem_mod": m}, "list"),
              st.integers(0, 3), st.integers(1, 50)),
)
# Values of each kind, in and out of every sort's range.
_values = {
    "int": st.integers(-6, 52),
    "bool": st.booleans(),
    "list": st.lists(st.integers(-2, 52), max_size=4),
}


@st.composite
def quickspec_signatures(draw):
    """A well-formed quickspec signature: up to 3 sorts of every kind, and up
    to 6 symbols, each a builtin at its kinds or a value of some sort,
    sometimes named like a logical constant."""
    sorts, names_of = [], {}
    for i in range(draw(st.integers(1, 3))):
        decl, kind = draw(_sort_decls)
        sorts.append({"name": f"s{i}", **decl})
        names_of.setdefault(kind, []).append(f"s{i}")
    symbols = []
    for i in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(_LOGIC_NAMES)) if draw(st.integers(0, 9)) == 0 else f"f{i}"
        builtin = draw(st.sampled_from(sorted(_BUILTIN_KINDS)))
        kinds = _BUILTIN_KINDS[builtin]
        if all(k in names_of for k in kinds):
            profile = [TCon(draw(st.sampled_from(names_of[k]))) for k in kinds]
            *args, ty = profile
            for arg in reversed(args):
                ty = fun(arg, ty)
            symbols.append({"name": name, "type": render_type(ty), "builtin": builtin})
        else:
            kind = draw(st.sampled_from(sorted(names_of)))
            sort = TCon(draw(st.sampled_from(names_of[kind])))
            symbols.append({"name": name, "type": render_type(sort),
                            "value": draw(_values[kind])})
    return {"sorts": sorts, "symbols": symbols}
