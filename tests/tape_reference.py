"""The attack loss on a reverse-mode gradient tape: the tests' reference.

The package differentiates its one fixed computation with hand-written
adjoints.  This module records the same computation scalar by scalar on a
dynamically built graph and differentiates it generically, so the tests
can hold the adjoints (and central differences) against an independent
derivative.  Every function accepts plain numbers as well as Var nodes,
so the same code evaluates the loss with and without recording.

Nodes hold either a Python float or a 1-D numpy array; array nodes carry
a whole batch (prediction samples, the segments of a polyline) through
one node.  Selection ops are hard selections: the gradient flows only to
the selected operand, ties resolved to the lowest index.  atan2 and norm2
define a zero gradient at the origin.  Division is true division, as in
the package's forward, so recorded values equal the package's forward.
"""

import math

import numpy as np

from trajattack.barriers import InfeasibleError
from trajattack.core import ConfigError, DataError, wrap_angle
from trajattack.dynamics import V_EPS
from trajattack.objectives import _check_horizon

_HALF_PI = 0.5 * math.pi


class Var:
    """One node of the computation graph.

    parents is a tuple of (parent, local_partial) pairs; local partials are
    computed eagerly during the forward pass.  Arithmetic with plain numbers
    produces nodes whose constant operand contributes no parent edge.
    """

    __slots__ = ("value", "parents", "adj")

    # Keep numpy from absorbing Var into object arrays; with this set,
    # ndarray <op> Var defers to the reflected operator below.
    __array_ufunc__ = None

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents
        self.adj = 0.0

    def __add__(self, other):
        if isinstance(other, Var):
            return Var(self.value + other.value, ((self, 1.0), (other, 1.0)))
        return Var(self.value + other, ((self, 1.0),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return Var(self.value - other.value, ((self, 1.0), (other, -1.0)))
        return Var(self.value - other, ((self, 1.0),))

    def __rsub__(self, other):
        return Var(other - self.value, ((self, -1.0),))

    def __mul__(self, other):
        if isinstance(other, Var):
            return Var(self.value * other.value,
                       ((self, other.value), (other, self.value)))
        return Var(self.value * other, ((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            q = self.value / other.value
            return Var(q, ((self, 1.0 / other.value), (other, -q / other.value)))
        return Var(self.value / other, ((self, 1.0 / other),))

    def __rtruediv__(self, other):
        q = other / self.value
        return Var(q, ((self, -q / self.value),))

    def __neg__(self):
        return Var(-self.value, ((self, -1.0),))

    def __float__(self):
        raise TypeError(
            "implicit float(Var) would drop the gradient; use value(x)")

    def __repr__(self):
        return f"Var({self.value!r})"


def value(x):
    """Primal value of x, whether it is a Var or a plain number/array."""
    return x.value if isinstance(x, Var) else x


def record(f, x0):
    """Evaluate f on leaf variables initialized at x0.

    Returns (value, gradient).  The recorded value equals the plain
    evaluation of f on x0, bit for bit, because node arithmetic applies the
    identical scalar operations to the stored values.
    """
    leaves = [Var(float(v)) for v in x0]
    root = f(leaves)
    return value(root), np.array(grad(root, leaves))


def _topo(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents precede children; root is last


def grad(root, leaves):
    """Adjoints of root with respect to each leaf (list of floats).

    Adjoints are zero-initialized on every call; leaves the root does not
    depend on get gradient 0.
    """
    if not isinstance(root, Var):
        return [0.0] * len(leaves)
    order = _topo(root)
    for node in order:
        node.adj = 0.0
    for leaf in leaves:
        leaf.adj = 0.0
    root.adj = 1.0
    for node in reversed(order):
        a = node.adj
        if type(a) is float and a == 0.0:
            continue
        for parent, d in node.parents:
            contrib = a * d
            if isinstance(parent.value, np.ndarray):
                parent.adj = parent.adj + contrib
            elif isinstance(contrib, np.ndarray):
                parent.adj = parent.adj + contrib.sum()
            else:
                parent.adj = parent.adj + contrib
    return [float(leaf.adj) for leaf in leaves]


def finite_diff_check(f, x0, h=1e-5):
    """Max relative disagreement between tape and central-difference gradients.

    Error metric per coordinate: |g_tape - g_fd| / max(1, |g_fd|).  f must
    accept a list of Vars (for recording) or floats (for the difference
    quotients) and return a scalar.
    """
    x0 = [float(v) for v in x0]
    _, g = record(f, x0)
    worst = 0.0
    for i in range(len(x0)):
        xp = list(x0)
        xm = list(x0)
        xp[i] += h
        xm[i] -= h
        fd = (float(value(f(xp))) - float(value(f(xm)))) / (2.0 * h)
        err = abs(g[i] - fd) / max(1.0, abs(fd))
        if err > worst:
            worst = err
    return worst


def _is_arr(v):
    return isinstance(v, np.ndarray)


def sin(x):
    if isinstance(x, Var):
        v = x.value
        if _is_arr(v):
            return Var(np.sin(v), ((x, np.cos(v)),))
        return Var(math.sin(v), ((x, math.cos(v)),))
    return np.sin(x) if _is_arr(x) else math.sin(x)


def cos(x):
    if isinstance(x, Var):
        v = x.value
        if _is_arr(v):
            return Var(np.cos(v), ((x, -np.sin(v)),))
        return Var(math.cos(v), ((x, -math.sin(v)),))
    return np.cos(x) if _is_arr(x) else math.cos(x)


def sqrt(x):
    if isinstance(x, Var):
        v = x.value
        r = np.sqrt(v) if _is_arr(v) else math.sqrt(v)
        return Var(r, ((x, 0.5 / r),))
    return np.sqrt(x) if _is_arr(x) else math.sqrt(x)


def log(x):
    if isinstance(x, Var):
        v = x.value
        r = np.log(v) if _is_arr(v) else math.log(v)
        return Var(r, ((x, 1.0 / v),))
    return np.log(x) if _is_arr(x) else math.log(x)


def absolute(x):
    """|x|; subgradient 0 at the kink."""
    if isinstance(x, Var):
        v = x.value
        if _is_arr(v):
            return Var(np.abs(v), ((x, np.sign(v)),))
        return Var(abs(v), ((x, float(np.sign(v))),))
    return np.abs(x) if _is_arr(x) else abs(x)


def atan2(y, x):
    """Four-quadrant arctangent; gradient defined as 0 at the origin."""
    yv = value(y)
    xv = value(x)
    arr = _is_arr(yv) or _is_arr(xv)
    r = np.arctan2(yv, xv) if arr else math.atan2(yv, xv)
    if not (isinstance(y, Var) or isinstance(x, Var)):
        return r
    d = xv * xv + yv * yv
    if arr:
        safe = np.where(d == 0.0, 1.0, d)
        dy = np.where(d == 0.0, 0.0, xv / safe)
        dx = np.where(d == 0.0, 0.0, -yv / safe)
    else:
        dy = xv / d if d != 0.0 else 0.0
        dx = -yv / d if d != 0.0 else 0.0
    parents = []
    if isinstance(y, Var):
        parents.append((y, dy))
    if isinstance(x, Var):
        parents.append((x, dx))
    return Var(r, tuple(parents))


def norm2(x, y):
    """Euclidean norm of the 2-vector (x, y); gradient 0 at zero length."""
    xv = value(x)
    yv = value(y)
    arr = _is_arr(xv) or _is_arr(yv)
    n = np.hypot(xv, yv) if arr else math.hypot(xv, yv)
    if not (isinstance(x, Var) or isinstance(y, Var)):
        return n
    if arr:
        safe = np.where(n == 0.0, 1.0, n)
        dx = np.where(n == 0.0, 0.0, xv / safe)
        dy = np.where(n == 0.0, 0.0, yv / safe)
    else:
        dx = xv / n if n != 0.0 else 0.0
        dy = yv / n if n != 0.0 else 0.0
    parents = []
    if isinstance(x, Var):
        parents.append((x, dx))
    if isinstance(y, Var):
        parents.append((y, dy))
    return Var(n, tuple(parents))


def minimum(a, b):
    """Elementwise min; on ties the first operand is selected."""
    av = value(a)
    bv = value(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return np.minimum(av, bv) if (_is_arr(av) or _is_arr(bv)) else min(av, bv)
    if _is_arr(av) or _is_arr(bv):
        take_a = (av <= bv).astype(float)
        r = np.where(av <= bv, av, bv)
    else:
        take_a = 1.0 if av <= bv else 0.0
        r = av if av <= bv else bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, take_a))
    if isinstance(b, Var):
        parents.append((b, 1.0 - take_a))
    return Var(r, tuple(parents))


def maximum(a, b):
    """Elementwise max; on ties the first operand is selected."""
    av = value(a)
    bv = value(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return np.maximum(av, bv) if (_is_arr(av) or _is_arr(bv)) else max(av, bv)
    if _is_arr(av) or _is_arr(bv):
        take_a = (av >= bv).astype(float)
        r = np.where(av >= bv, av, bv)
    else:
        take_a = 1.0 if av >= bv else 0.0
        r = av if av >= bv else bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, take_a))
    if isinstance(b, Var):
        parents.append((b, 1.0 - take_a))
    return Var(r, tuple(parents))


def where(cond, a, b):
    """Select a where cond else b.  cond is a plain boolean (array), not a Var."""
    av = value(a)
    bv = value(b)
    if not (isinstance(a, Var) or isinstance(b, Var)):
        return np.where(cond, av, bv)
    r = np.where(cond, av, bv)
    mask = cond.astype(float) if _is_arr(cond) else (1.0 if cond else 0.0)
    parents = []
    if isinstance(a, Var):
        parents.append((a, mask))
    if isinstance(b, Var):
        parents.append((b, 1.0 - mask))
    return Var(r, tuple(parents))


def vsum(x):
    """Sum of an array-valued node (identity on scalars)."""
    if isinstance(x, Var):
        v = x.value
        if not _is_arr(v):
            return x
        return Var(float(np.sum(v)), ((x, np.ones_like(v)),))
    return float(np.sum(x)) if _is_arr(x) else x


def vmean(x):
    """Mean of an array-valued node (identity on scalars)."""
    if isinstance(x, Var):
        v = x.value
        if not _is_arr(v):
            return x
        n = v.shape[0]
        return Var(float(np.sum(v)) / n, ((x, np.full_like(v, 1.0 / n)),))
    return float(np.mean(x)) if _is_arr(x) else x


def reduce_min(x):
    """Min over an array-valued node; gradient routes to the first minimizer."""
    if isinstance(x, Var):
        v = x.value
        if not _is_arr(v):
            return x
        i = int(np.argmin(v))
        hot = np.zeros_like(v)
        hot[i] = 1.0
        return Var(float(v[i]), ((x, hot),))
    return float(np.min(x)) if _is_arr(x) else x


def fold_min(items):
    """Min over a sequence of scalars/nodes; ties keep the earliest item."""
    acc = items[0]
    for it in items[1:]:
        acc = minimum(acc, it)
    return acc


# ---------------------------------------------------------------------------
# the attack loss


def _wrap(x):
    """Wrap an angle (possibly a tape node) to (-pi, pi]; gradient is identity."""
    if isinstance(x, Var):
        return Var(wrap_angle(x.value), ((x, 1.0),))
    return wrap_angle(x)


def step_xy(x, y, theta, v, a, kappa, dt):
    """One forward model step on raw coordinates; returns (x', y', theta', v')."""
    v1 = v + a * dt
    th1 = theta + v * kappa * dt
    x1 = x + v1 * cos(th1) * dt
    y1 = y + v1 * sin(th1) * dt
    return x1, y1, th1, v1


def extract_xy(xs, ys, dt):
    """Inverse model over raw coordinate sequences (floats or tape nodes).

    Returns (initial state tuple, accelerations, curvatures, terminal state
    tuple); state tuples are (x, y, theta, v).  Branch decisions (direction
    of travel, dead-bands, angle wrapping) follow primal values.
    """
    n = len(xs)
    if n < 2:
        raise DataError("extraction needs at least 2 points")
    # a step slower than V_EPS is a stop; a state at rest faces the next
    # moving step (the heading cannot change at zero speed), and only a
    # trailing stop keeps the heading it stopped with
    heads = [0.0] * n
    speeds = [0.0] * n
    th = None
    rest = 0
    for t in range(n - 1):
        vx = (xs[t + 1] - xs[t]) / dt
        vy = (ys[t + 1] - ys[t]) / dt
        if math.hypot(value(vx), value(vy)) < V_EPS:
            continue
        ahead = th is None or \
            abs(wrap_angle(math.atan2(value(vy), value(vx)) - value(th))) <= _HALF_PI
        d = 1.0 if ahead else -1.0
        th = atan2(vy * d, vx * d)
        heads[rest:t + 2] = [th] * (t + 2 - rest)
        speeds[t + 1] = norm2(vx, vy) * d
        rest = t + 2
    if th is not None:
        heads[rest:] = [th] * (n - rest)
    speeds[0] = speeds[1]
    state0 = (xs[0], ys[0], heads[0], speeds[0])
    accels = []
    kappas = []
    for t in range(n - 1):
        v = speeds[t]
        accels.append((speeds[t + 1] - v) / dt)
        if abs(value(v)) < V_EPS:
            kappas.append(0.0)
        else:
            kappas.append(_wrap(heads[t + 1] - heads[t]) / (v * dt))
    return state0, accels, kappas, (xs[-1], ys[-1], heads[-1], speeds[-1])


def predict_xy(predictor, xs, ys, dt, horizon):
    """KinematicPredictor samples from raw past coordinates.

    Coordinates may be floats or tape nodes.  Returns a list of
    (x, y) pairs per future step, each holding all K samples.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if len(xs) < 3:
        raise DataError("prediction needs at least 3 past points")
    _, accels, kappas, (x, y, th, v) = extract_xy(xs, ys, dt)
    w = min(predictor.config.smoothing_window, len(accels))
    a_star = accels[-w]
    k_star = kappas[-w]
    for i in range(len(accels) - w + 1, len(accels)):
        a_star = a_star + accels[i]
        k_star = k_star + kappas[i]
    a_star = a_star / w
    k_star = k_star / w
    a_k = a_star + predictor._offset_a       # (K,)
    k_k = k_star + predictor._offset_kappa   # (K,)
    out = []
    for _ in range(horizon):
        x, y, th, v = step_xy(x, y, th, v, a_k, k_k, dt)
        out.append((x, y))
    return out


def ade_xy(pred_xy, ref_pts):
    """Negated mean displacement between samples and the reference future."""
    _check_horizon(len(pred_xy), len(ref_pts), "ade")
    k = len(value(pred_xy[0][0]))
    total = 0.0
    for (px, py), ref in zip(pred_xy, ref_pts):
        total = total + vsum(norm2(px - ref[0], py - ref[1]))
    return -(total / (k * len(pred_xy)))


def fde_xy(pred_xy, ref_pts):
    """Negated mean final displacement between samples and the reference."""
    _check_horizon(len(pred_xy), len(ref_pts), "fde")
    px, py = pred_xy[-1]
    ref = ref_pts[-1]
    k = len(value(px))
    return -(vsum(norm2(px - ref[0], py - ref[1])) / k)


def collision_fp_xy(pred_xy, ego_pts):
    """Mean over samples of each sample's closest approach to the ego future."""
    _check_horizon(len(pred_xy), len(ego_pts), "collision_fp")
    per_step = [norm2(px - e[0], py - e[1]) for (px, py), e in zip(pred_xy, ego_pts)]
    return vmean(fold_min(per_step))


def collision_fn_xy(y_xy, pred_xy, ego_pts, clean_mean_pts):
    """Closest approach of the perturbed future to the ego, plus the mean
    displacement of the perturbed predictions from the frozen clean ones."""
    _check_horizon(len(y_xy), len(ego_pts), "collision_fn")
    _check_horizon(len(pred_xy), len(clean_mean_pts), "collision_fn")
    approach = fold_min([norm2(x - e[0], y - e[1])
                         for (x, y), e in zip(y_xy, ego_pts)])
    drift = 0.0
    for (px, py), ref in zip(pred_xy, clean_mean_pts):
        drift = drift + norm2(vmean(px) - ref[0], vmean(py) - ref[1])
    return approach + drift / len(pred_xy)


def d_time(p_pert, p_ref):
    """Displacement between a perturbed point and its reference at the same index."""
    return norm2(p_pert[0] - p_ref[0], p_pert[1] - p_ref[1])


def _segment_arrays(ref_pts):
    ref = np.asarray(ref_pts, dtype=float)
    if ref.ndim != 2 or ref.shape[1] != 2 or len(ref) < 2:
        raise DataError("reference polyline needs shape (N>=2, 2)")
    b = ref[:-1]
    c = ref[1:]
    ux = b[:, 0] - c[:, 0]
    uy = b[:, 1] - c[:, 1]
    seg2 = ux * ux + uy * uy
    return b, c, ux, uy, seg2


def _segment_distances(px, py, segs):
    """Distances from one point to every reference segment at once.

    px/py may be tape nodes; branch selection (projection parameter r
    against [0, 1], degenerate segments) uses primal values, matching
    the package's segment table branch for branch.
    """
    b, c, ux, uy, seg2 = segs
    safe2 = np.where(seg2 == 0.0, 1.0, seg2)
    wx = px - c[:, 0]
    wy = py - c[:, 1]
    r = (wx * ux + wy * uy) / safe2
    d_c = norm2(wx, wy)
    d_b = norm2(px - b[:, 0], py - b[:, 1])
    d_perp = absolute(wx * uy - wy * ux) / sqrt(safe2)
    rv = value(r)
    low = (rv <= 0.0) | (seg2 == 0.0)
    return where(low, d_c, where(rv < 1.0, d_perp, d_b))


def d_traj(p_pert, ref_pts):
    """Distance from a point to the reference polyline (min over segments).

    Ties between segments resolve to the lowest segment index.
    """
    return reduce_min(_segment_distances(p_pert[0], p_pert[1], _segment_arrays(ref_pts)))


def barrier_point(d, d_max):
    """-ln(d_max - d); raises InfeasibleError once d reaches d_max."""
    if value(d) >= d_max:
        raise InfeasibleError(f"constrained distance {value(d):.6g} >= d_max {d_max:.6g}")
    return -log(d_max - d)


def barrier_time(pert_pts, ref_pts, d_max):
    """Mean matched-index barrier over all points of the trajectory."""
    if len(pert_pts) != len(ref_pts):
        raise DataError("barrier_time: trajectories differ in length")
    total = 0.0
    for p, ref in zip(pert_pts, ref_pts):
        total = total + barrier_point(d_time(p, ref), d_max)
    return total / len(pert_pts)


def barrier_traj(pert_pts, ref_pts, d_max):
    """Mean polyline-distance barrier over all points of the trajectory."""
    segs = _segment_arrays(ref_pts)
    total = 0.0
    for p in pert_pts:
        d = reduce_min(_segment_distances(p[0], p[1], segs))
        total = total + barrier_point(d, d_max)
    return total / len(pert_pts)


def barrier_time_traj(pert_pts, ref_pts, d_max):
    """Polyline barrier plus a matched-index barrier on the final point."""
    if len(pert_pts) != len(ref_pts):
        raise DataError("barrier_time_traj: trajectories differ in length")
    pinned = barrier_point(d_time(pert_pts[-1], ref_pts[-1]), d_max)
    return barrier_traj(pert_pts, ref_pts, d_max) + pinned


def reference_loss(problem, flat):
    """Total attack loss of an AttackProblem at a flat [a0, k0, a1, k1, ...]
    perturbation; entries may be floats or tape nodes."""
    cfg = problem.cfg
    ref = problem.ref_controls
    x, y, th, v = problem.s0
    pts = [(x, y)]
    for i in range(len(ref)):
        x, y, th, v = step_xy(x, y, th, v, float(ref[i, 0]) + flat[2 * i],
                              float(ref[i, 1]) + flat[2 * i + 1], problem.dt)
        pts.append((x, y))
    n_past = len(problem.u_ref)
    past, fut = pts[:n_past + 1], pts[n_past + 1:]
    pred_xy = predict_xy(problem.predictor, [p[0] for p in past], [p[1] for p in past],
                         problem.dt, problem.horizon_future)
    name = cfg.objective
    if name == "ade":
        total = ade_xy(pred_xy, problem.y_ref_pts)
    elif name == "fde":
        total = fde_xy(pred_xy, problem.y_ref_pts)
    elif name == "collision_fp":
        total = collision_fp_xy(pred_xy, problem.ego_pts)
    elif name == "collision_fn":
        total = collision_fn_xy(fut, pred_xy, problem.ego_pts, problem.clean_mean)
    else:
        raise ConfigError(f"unknown objective {name!r}")
    if cfg.barrier.observed_mode == "time":
        total = total + barrier_time(past, problem.x_ref, cfg.barrier.d_max)
    else:
        total = total + barrier_time_traj(past, problem.x_ref, cfg.barrier.d_max)
    if cfg.barrier.future_mode == "traj":
        total = total + barrier_traj(fut, problem.y_ref, cfg.barrier.d_max)
    return total
