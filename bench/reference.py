"""Expected outputs the benchmark checks every task against.

These are held by the benchmark itself, not read from the library, so a
change that alters a library table or a count is caught as a wrong answer.
"""

# Exact element counts of genus-2 balls, keyed by (level N, radius).
GENUS2_BALL_COUNTS = {
    (1, 3.0): 12_320,
    (1, 3.5): 33_952,
    (1, 4.0): 112_800,
    (2, 6.0): 3_140,
    (2, 8.0): 16_772,
    (3, 8.0): 297,
    (3, 10.0): 1_113,
}


def _table(first_m, rows):
    return {(l, first_m + j): v for l, row in enumerate(rows) for j, v in enumerate(row)}


# Reference thresholds N0 for the weights det^l, keyed by genus then (l, m).
N0_DETL = {
    1: _table(3, [
        [14, 6, 4, 4, 3, 3, 3, 2],
        [23, 9, 6, 5, 4, 4, 3, 3],
        [32, 12, 8, 6, 5, 5, 4, 4],
        [40, 15, 10, 7, 6, 5, 5, 4],
        [49, 18, 11, 9, 7, 6, 5, 5],
        [58, 21, 13, 10, 8, 7, 6, 6],
        [67, 24, 15, 11, 9, 8, 7, 6],
        [75, 26, 16, 12, 10, 8, 7, 7],
        [84, 29, 18, 13, 11, 9, 8, 7],
        [93, 32, 20, 15, 12, 10, 9, 8],
        [102, 35, 22, 16, 13, 11, 9, 8],
        [111, 38, 23, 17, 14, 12, 10, 9],
        [119, 41, 25, 18, 15, 12, 11, 10],
    ]),
    2: _table(5, [
        [77, 25, 15, 11, 9, 8, 7, 6],
        [107, 33, 20, 14, 11, 10, 8, 8],
        [137, 41, 24, 17, 14, 11, 10, 9],
        [167, 49, 28, 20, 16, 13, 11, 10],
        [197, 58, 33, 23, 18, 15, 13, 11],
        [227, 66, 37, 26, 20, 17, 14, 12],
        [257, 74, 41, 29, 22, 18, 16, 14],
        [287, 82, 46, 32, 24, 20, 17, 15],
        [317, 90, 50, 34, 26, 22, 18, 16],
        [347, 98, 54, 37, 29, 23, 20, 17],
        [377, 107, 59, 40, 31, 25, 21, 18],
        [407, 115, 63, 43, 33, 27, 22, 19],
        [437, 123, 67, 46, 35, 28, 24, 21],
    ]),
}

# Genus-2 polynomial weights for the Monte Carlo threshold, with the level
# each certifies at the library's default samples, seed and confidence.
# The det^l rows agree with N0_DETL; "det + X_{1,1}" needs one fourfold
# escalation of the sample count before it certifies.
N0_GENERAL = (
    ("det^2 + 3*X_{1,2}", 8, 13),
    ("det", 8, 14),
    ("X_{1,1}*X_{2,2}", 10, 10),
    ("det^3", 12, 10),
    ("det + X_{1,1}", 9, 11),
)
