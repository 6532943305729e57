"""Certificates are probability claims; sampling makes them observable.

A penalty certificate says: sampling from this distribution yields, with
probability at least t, a set that satisfies the constraint AND has cost at
most the bound.  A box certificate splits its guarantee between a Markov
piece (the cost bound) and a Hoeffding piece (the volume window).  Both are
checked here against 100000 actual samples.
"""
import numpy as np

from cliquecut import (
    CliqueLossParams,
    VolumeConstraint,
    box_certificate,
    brute_force_max_clique,
    clique_loss,
    expected_cut,
    gen_gnp,
    is_clique,
    penalty_certificate,
    set_weight,
)

rng = np.random.default_rng(3)
samples = 100_000

# --- Penalty certificate on a concentrated clique distribution -------------
g = gen_gnp(9, 0.6, rng)
members = brute_force_max_clique(g).indices()
p = rng.uniform(0.0, 0.01, g.n)
p[members] = 0.95
params = CliqueLossParams.for_graph(g)
loss = clique_loss(g, p, params).value
t = 0.5 * (1.0 - loss / params.beta)
cert = penalty_certificate(loss, params.beta, t)
print(f"G(9, 0.6): mass on the max clique {sorted(members.tolist())}, loss {loss:.3f}")
print(f"Claim: P(clique and {params.gamma:.0f} - weight(S) <= {cert.bound:.3f}) >= {t:.3f}")

draws = rng.random((samples, g.n)) < p
costs = params.gamma - np.array([set_weight(g, m) for m in draws])
good = np.array([is_clique(g, m) for m in draws]) & (costs <= cert.bound + 1e-9)
print(f"Observed over {samples} samples: {good.mean():.4f} (claimed >= {t:.3f})\n")

# --- Box certificate on a cut-with-volume-window distribution --------------
g = gen_gnp(25, 0.4, rng)
p = rng.uniform(0.3, 0.7, g.n)
deg = g.degree
center = float(deg @ p)
half_width = 1.5 * float(np.sqrt(deg @ deg))
interval = VolumeConstraint(center - half_width, center + half_width)
cert = box_certificate(expected_cut(g, p), 0.9, deg, interval, p=p)
print(f"G(25, 0.4): volume window ({interval.lower:.1f}, {interval.upper:.1f})"
      f" centered on the expected volume {center:.1f}")
print(f"Claim: P(cut <= {cert.bound:.2f} and volume in window)"
      f" >= {cert.success_prob:.4f}")
print(f"  (Markov piece t = {cert.t}, Hoeffding volume-escape allowance"
      f" = {cert.hoeffding_term:.4f})")

draws = rng.random((samples, g.n)) < p
vols = draws @ deg
cuts = (draws[:, g.edge_u] ^ draws[:, g.edge_v]) @ g.edge_w
inside = (vols >= interval.lower) & (vols <= interval.upper)
good = inside & (cuts <= cert.bound + 1e-9)
print(f"Observed over {samples} samples: {good.mean():.4f}"
      f" (claimed >= {cert.success_prob:.4f})")
print(f"Observed volume escapes: {(~inside).mean():.4f}"
      f" (allowed <= {cert.hoeffding_term:.4f})")
