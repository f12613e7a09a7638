"""The package's public names: which ones, and that each one resolves."""

import conset

PUBLIC = frozenset({
    "ArityMismatch", "BottomStructure", "CalculusError",
    "DEFAULT_BUDGET", "EMPTY", "EmptyHasNoMaximal", "EvalError",
    "ExprSyntaxError", "IndexOutOfRange", "IsoWitness", "MalformedGraph",
    "MalformedText", "MiddleStructure", "NoSuchPosition", "NoneFound", "NotABottom",
    "NotANumeral", "NotAPermutation", "NotAStructure", "NotUnique", "POINT",
    "PairDecode", "PairDiagnosis", "SearchBudgetExceeded", "SetHandle",
    "StructureGraph", "TerminalMismatch", "TopStructure", "Unrealizable",
    "__version__", "add_vn", "add_zermelo", "as_vn", "as_zermelo",
    "bottom_structure", "bottom_terminal", "canonical_cert", "cardinality",
    "chain_graph", "check_graph", "close", "compose", "compose_all",
    "constituent_at", "constituent_set", "constituents", "contains_position",
    "corpus_generate", "decode_kuratowski", "diamond", "elements", "empty",
    "evaluate", "fuse", "fuse_middle", "fuse_with_terminals", "get_at",
    "graph_from_json", "graph_product", "graph_sum", "has_bottom",
    "has_bottom_structure", "has_top_structure", "instance_count",
    "is_constituent", "is_top", "is_vn", "is_zermelo", "isomorphic",
    "kuratowski_pair", "kuratowski_top", "lcc", "lcc_set", "make_set",
    "make_tuple", "map_union", "match_terminals", "max_with_bottom",
    "max_with_bottom_unique", "maximal_constituents", "maximal_elements",
    "middle", "middle_identity", "middle_permutation", "middle_structure",
    "mul_structural", "parse", "position", "position_path", "remove_bottom",
    "remove_top", "replace", "simplest_set", "structure_of", "to_dot",
    "to_json", "to_text", "top_structure", "union", "unique_maximum",
    "validate_bottom", "validate_middle", "validate_top", "vn", "with_top",
    "with_top_unique", "zermelo",
})


def test_public_names_are_pinned():
    assert len(conset.__all__) == len(PUBLIC) == 107
    assert set(conset.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from conset import *", namespace)
    for name in PUBLIC:
        assert getattr(conset, name) is namespace[name]
