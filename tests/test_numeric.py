import numpy as np

from cabee.numeric import first_best


def test_first_best_equals_argmin_and_argmax_with_ties_and_infinities(rng):
    """The running first-best index equals numpy's argmin and argmax on rows
    with exact ties and with infinities, over axes of 1 to 5 entries, on
    row-major and on game-major arrays, and down the columns of a (P, B)
    table through its transpose, as model 1 picks each subject's partition."""
    for n in range(1, 6):
        x = rng.integers(0, 3, (500, 3, n)).astype(float)
        x[rng.random(x.shape) < 0.2] = np.inf
        x[rng.random(x.shape) < 0.1] = -np.inf
        x[:5] = np.inf  # whole rows tied at infinity
        for arr in (x, np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)):
            np.testing.assert_array_equal(first_best(arr, np.minimum), arr.argmin(axis=-1))
            np.testing.assert_array_equal(first_best(arr, np.maximum), arr.argmax(axis=-1))
        table = np.ascontiguousarray(x[:, 0].T)  # (P, B) = (n, 500), one row per candidate
        np.testing.assert_array_equal(first_best(table.T, np.minimum), table.argmin(axis=0))
        np.testing.assert_array_equal(first_best(table.T, np.maximum), table.argmax(axis=0))
