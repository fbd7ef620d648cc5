"""The integer k-th root as Newton from 2^ceil(bits/k), kept as the oracle
for `enclosure.iroot`.

From that start, up to twice the root, Newton closes in about 0.7*k linear
steps, so this is only fit for small orders.
"""


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1."""
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x
