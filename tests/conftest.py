import numpy as np


def make_windows(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    return rng.normal(size=(n, length))
