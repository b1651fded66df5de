"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
package: segment distance by iterated dense sampling, box overlap by point
containment of corners and grids plus orientation-predicate edge crossings
(the exact limit of densifying the boundary sample), gradients by central
differences.
"""

import numpy as np


def segment_distance_bruteforce(a, b, c, n0=257, rounds=12, m=65):
    """Min distance from each point a[i] to segment [c[i], b[i]] by sampling.

    Dense uniform samples along the segment, then repeated re-sampling of
    the bracket around the best sample.  The distance along the segment is
    convex, so the true minimizer stays inside the +-1-step bracket and the
    bracket shrinks geometrically; the result is exact to roundoff.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    lo = np.zeros(len(a))
    hi = np.ones(len(a))
    best = np.full(len(a), np.inf)
    for n in [n0] + [m] * rounds:
        ts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, n)
        px = c[:, 0:1] + ts * (b[:, 0:1] - c[:, 0:1])
        py = c[:, 1:2] + ts * (b[:, 1:2] - c[:, 1:2])
        d = np.hypot(a[:, 0:1] - px, a[:, 1:2] - py)
        i = np.argmin(d, axis=1)
        best = np.minimum(best, d[np.arange(len(a)), i])
        step = (hi - lo) / (n - 1)
        t_best = lo + i * step
        lo = np.clip(t_best - step, 0.0, 1.0)
        hi = np.clip(t_best + step, 0.0, 1.0)
    return best


def central_difference_error(g, f, x0, h=1e-5):
    """Worst disagreement of gradient g with central differences of f at x0.

    The metric of tape_reference.finite_diff_check: the maximum over coordinates
    of |g_i - fd_i| / max(1, |fd_i|), with fd_i = (f(x0 + h e_i) - f(x0 - h e_i)) / 2h.
    f takes a list of floats and returns a number.
    """
    x0 = [float(v) for v in x0]
    worst = 0.0
    for i in range(len(x0)):
        xp = list(x0)
        xm = list(x0)
        xp[i] += h
        xm[i] -= h
        fd = (float(f(xp)) - float(f(xm))) / (2.0 * h)
        worst = max(worst, abs(g[i] - fd) / max(1.0, abs(fd)))
    return worst


def box_corners(center, heading, length, width):
    c = np.cos(heading)
    s = np.sin(heading)
    half = 0.5 * np.array([[length, width], [length, -width],
                           [-length, -width], [-length, width]])
    rot = np.array([[c, -s], [s, c]])
    return np.asarray(center, dtype=float) + half @ rot.T


def points_in_box(pts, center, heading, length, width):
    """Closed containment test in the box frame."""
    c = np.cos(heading)
    s = np.sin(heading)
    d = np.asarray(pts, dtype=float) - np.asarray(center, dtype=float)
    u = d[:, 0] * c + d[:, 1] * s
    v = -d[:, 0] * s + d[:, 1] * c
    return (np.abs(u) <= 0.5 * length) & (np.abs(v) <= 0.5 * width)


def box_grid(center, heading, length, width, n):
    ts = np.linspace(-0.5, 0.5, n)
    u, v = np.meshgrid(ts * length, ts * width)
    c = np.cos(heading)
    s = np.sin(heading)
    x = center[0] + u * c - v * s
    y = center[1] + u * s + v * c
    return np.column_stack([x.ravel(), y.ravel()])


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c):
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def segments_intersect(p1, p2, q1, q2):
    """Closed-segment intersection by orientation predicates."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def box_overlap_oracle(c1, h1, c2, h2, length, width, grow=0.0, grid_n=0):
    """Containment-based overlap decision for two closed oriented boxes.

    Corner containment both ways catches full containment; edge-crossing
    predicates catch slivers that no finite interior grid can resolve; an
    optional dense grid per box corroborates interior overlap.  grow
    inflates both boxes, which turns the oracle into a boundary-band probe.
    """
    length = length + 2.0 * grow
    width = width + 2.0 * grow
    k1 = box_corners(c1, h1, length, width)
    k2 = box_corners(c2, h2, length, width)
    if points_in_box(k1, c2, h2, length, width).any():
        return True
    if points_in_box(k2, c1, h1, length, width).any():
        return True
    for i in range(4):
        for j in range(4):
            if segments_intersect(k1[i], k1[(i + 1) % 4],
                                  k2[j], k2[(j + 1) % 4]):
                return True
    if grid_n:
        if points_in_box(box_grid(c1, h1, length, width, grid_n),
                         c2, h2, length, width).any():
            return True
        if points_in_box(box_grid(c2, h2, length, width, grid_n),
                         c1, h1, length, width).any():
            return True
    return False
