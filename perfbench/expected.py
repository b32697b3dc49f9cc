"""The paper's exact answers, as literals the benchmark checks against.

The benchmark keeps its own copy so that a change to the program cannot
move the expected values along with the answers it checks.
"""

CATALOG_SIZE = 57
NON_CCT = frozenset({
    "S4", "G(32,6)", "G(32,7)", "G(32,8)",
    "G(32,43)", "G(32,44)", "G(32,49)", "G(32,50)",
})
PRESTRUCTURE_FREE = (
    "S4", "G(24,3)", "G(32,6)", "G(32,7)", "G(32,8)", "G(32,43)", "G(32,44)",
)
PRESTRUCTURE_FREE_ORDER_32 = PRESTRUCTURE_FREE[2:]
EXTRA_SPECIAL = ("G(32,49)", "G(32,50)")
STRUCTURES = 2211840
LIFTS_PER_REDUCED = 256
AUT_ORDER = {"G(32,49)": 1152, "G(32,50)": 1920}
ORBITS = {"G(32,49)": 1920, "G(32,50)": 1152}
SCAN_MINIMUM = 16
SCAN_MINIMIZERS = [(32, 2, 2)]
H1 = {"free_rank": 8, "torsion": [2, 2, 2, 2]}
EXAMPLE_REPORT = {
    "group_order": 32, "b": 2, "n": 2, "frak_n": "1/2", "m1": 1, "m2": 1,
    "b1": 2, "b2": 2, "g1": 41, "g2": 41, "c1sq": 368, "c2": 160,
    "slope": "23/10", "sigma": 16, "chi": 44,
}

# Groups of order <= 8 on which the prestructure search is compared with
# the slow reference search.
SMALL_GROUPS = {
    "Z1": "gens: e\nrel: e",
    "Z2": "gens: x\nrel: x^2",
    "Z3": "gens: x\nrel: x^3",
    "Z4": "gens: x\nrel: x^4",
    "V4": "gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]",
    "Z5": "gens: x\nrel: x^5",
    "Z6": "gens: x\nrel: x^6",
    "S3": "gens: r s\nrel: r^3\nrel: s^2\nrel: s r s^-1 r",
    "Z7": "gens: x\nrel: x^7",
    "Z8": "gens: x\nrel: x^8",
    "Z4xZ2": "gens: x y\nrel: x^4\nrel: y^2\nrel: [x,y]",
    "Z2xZ2xZ2": (
        "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\n"
        "rel: [x,y]\nrel: [x,z]\nrel: [y,z]"
    ),
    "D8": "gens: r s\nrel: r^4\nrel: s^2\nrel: s r s^-1 r",
    "Q8": "gens: i j\nrel: i^4\nrel: j^2 i^-2\nrel: j i j^-1 i",
}


def label_order(label: str) -> int:
    """Group order read off a catalog label: G(n,k) has order n."""
    if label == "A4":
        return 12
    if label == "S4":
        return 24
    return int(label[2:].split(",")[0])
