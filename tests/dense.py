"""Dense views of the sparse admissible matrices, for tests only."""

from phyloinv.tripod import admissible_condition_matrix


def dense(m):
    """The |G| x |G| tuple of rows of an ``AdmissibleMatrix``."""
    n = m.group.order
    return tuple(tuple(m.entries.get((a, b), 0) for b in range(n))
                 for a in range(n))


def flat(m):
    """Row-major flattening of :func:`dense`, the oracle's coordinates."""
    return [x for row in dense(m) for x in row]


def sparse(rows):
    """The nonzero entries of a dense matrix, keyed by (row, column)."""
    return {(a, b): v for a, row in enumerate(rows)
            for b, v in enumerate(row) if v}


def meets_conditions(spec, values):
    """Oracle: the flattened ``values`` lie in the kernel of the condition
    matrix of ``spec``."""
    return all(sum(c * x for c, x in zip(row, values)) == 0
               for row in admissible_condition_matrix(spec))
