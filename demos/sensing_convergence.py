"""Matrix-sensing benchmark: all seven solvers on one certified instance.

Builds a 40 x 40 sensing problem with an exactly-certified isometry
constant, starts every solver from the same balanced initialization, and
prints the per-solver outcome together with the fitted per-iteration
contraction. The initialization certificate printed first is the quantity
that has to be below 1 for the linear-rate guarantee to apply.
"""

from odelora import (
    Scheme,
    SolverConfig,
    WindowTooShort,
    make_sensing_instance,
    perturbed_balanced_init,
    rate_fit,
    run_trajectory,
    sensing_eps_certificate,
    sensing_objective,
)

DELTA = 0.05
H = 0.1
ITERS = 400


def main():
    problem = make_sensing_instance(m=40, n=40, o=40, r=4, delta=DELTA, seed=0)
    objective = sensing_objective(problem)
    start = perturbed_balanced_init(problem, scale=0.8, perturbation=0.05, seed=0)

    print(f"sensing instance: 40x40, rank 4, isometry constant delta = {DELTA}")
    print(f"initialization certificate: {sensing_eps_certificate(problem, start):.4f} (< 1 required)")
    print(f"step size h = {H}, {ITERS} iterations\n")

    print(f"{'solver':<14} {'final loss':>12} {'contraction':>12} {'balance defect':>15}")
    for scheme in Scheme:
        log = run_trajectory(start, objective, SolverConfig(scheme, H, ITERS))
        if log.diverged:
            print(f"{scheme.value:<14} {'diverged':>12}")
            continue
        try:
            contraction = f"{rate_fit(log.losses(), 0.0).contraction:.4f}"
        except WindowTooShort:
            contraction = "-"
        defect = log.rows[-1].balance_defect
        defect_str = f"{defect:.2e}" if defect is not None else "-"
        print(f"{scheme.value:<14} {log.final_loss:>12.3e} {contraction:>12} {defect_str:>15}")

    print("\nNote the balance-defect column: lora_pro shares the weight dynamics")
    print("with ode_euler but, with its gauge fixed to zero instead of the")
    print("Sylvester solution, its factors drift far off the balanced manifold.")
    print("At h = 1.0 plain factor descent diverges while the flow steppers")
    print("still converge; rerun with H = 1.0 to see it.")


if __name__ == "__main__":
    main()
