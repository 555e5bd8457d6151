"""How well each scheme stays on the balanced manifold A A^T = B^T B.

The flow conserves A A^T - B^T B exactly, so any drift is discretization
leak: O(h^{p+1}) per step for a p-th order stepper. The script shows the
drift along 200-step runs from an exactly balanced start, and the per-step
leak order via step halving. Plain factor descent has no such conservation
law and drifts immediately.
"""

import numpy as np

from odelora import (
    Scheme,
    SolverConfig,
    balance_defect,
    make_sensing_instance,
    perturbed_balanced_init,
    run_trajectory,
    sensing_objective,
    step,
)


def main():
    problem = make_sensing_instance(m=40, n=40, o=40, r=4, delta=0.05, seed=0)
    objective = sensing_objective(problem)
    start = perturbed_balanced_init(problem, scale=0.8, perturbation=0.05, seed=0)
    print(f"initial balance defect: {balance_defect(start):.3e}\n")

    print("terminal defect after 200 steps at h = 0.1:")
    for scheme in (Scheme.ODE_EULER, Scheme.ODE_RK2, Scheme.ODE_RK4, Scheme.CLASSICAL_GD):
        log = run_trajectory(start, objective, SolverConfig(scheme, 0.1, 200))
        defect = log.rows[-1].balance_defect
        print(f"    {scheme.value:<14} {defect:.3e}" + ("  (diverged)" if log.diverged else ""))

    print("\nper-step leak order (log2 of the defect ratio when h halves, few steps):")
    steppers = (("euler", Scheme.ODE_EULER, 1), ("rk2", Scheme.ODE_RK2, 2),
                ("rk4", Scheme.ODE_RK4, 4))
    for name, scheme, order in steppers:
        def defect_after(h, steps=3):
            state = start
            for _ in range(steps):
                state = step(scheme, state, objective, h, 1e-8)
            return balance_defect(state)

        ratio = np.log2(defect_after(0.1) / defect_after(0.05))
        print(f"    {name:<6} measured {ratio:.2f}   (theory: order p = {order} leaks h^{order + 1})")

    one_classical = step(Scheme.CLASSICAL_GD, start, objective, 0.1)
    print(f"\nplain factor descent, defect after ONE step: {balance_defect(one_classical):.3e}")


if __name__ == "__main__":
    main()
