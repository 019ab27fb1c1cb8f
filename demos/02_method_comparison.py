"""Accuracy and speed comparison against three classic alternatives.

Builds the accuracy table for the default evaluator (trap, N=11), the
rational approximation in the Mobius variable (weideman, N=40), the
Laplace continued fraction (cf, 9th convergent, rated for |z| >= 8), and
the real/imaginary sum split (zaghloul, a=1/2, K=38).  Errors are measured
against the double-double oracle on each method's rated domain, then a
quick timing pass shows relative cost per grid evaluation.

Run:  python demos/02_method_comparison.py
"""

from faddeeva.bench import GridSpec, accuracy_table, timing_run

grid = GridSpec(p_min=-6.0, p_max=6.0, p_step=0.048, theta_count=101)
methods = ["trap(11)", "weideman(40)", "cf(9)", "zaghloul(0.5,38)"]

print("accuracy vs double-double oracle (rated domains):")
print(f"{'method':<18} {'max abs':>12} {'max rel':>12}")
for row in accuracy_table(methods, grid):
    print(f"{row.method:<18} {row.max_abs:>12.3e} {row.max_rel:>12.3e}")

print("\ntiming (mean of 5 full-grid passes, informational only):")
for rec in timing_run(methods, grid, reps=5):
    print(f"{rec.method:<18} {rec.mean_seconds*1e3:>8.2f} ms  (sd {rec.sd_seconds*1e3:.2f} ms)")
