"""Richardson order measurement for the three flow discretizations.

Integrates the balanced adapter flow to a fixed horizon with halving step
sizes, measures terminal defects against a fine-step RK4 reference, and
prints the observed orders: ~1 for Euler, ~2 for Heun, ~4 for RK4. Note
the cost-accuracy tradeoff visible in the table: the RK4 defect at
h = 0.1 already undercuts the Euler defect at h = 0.025.
"""

from odelora import (
    estimate_order,
    make_sensing_instance,
    perturbed_balanced_init,
    sensing_objective,
)

H_LIST = (0.2, 0.1, 0.05, 0.025)
HORIZON = 1.0


def main():
    problem = make_sensing_instance(m=40, n=40, o=40, r=4, delta=0.05, seed=0)
    objective = sensing_objective(problem)
    start = perturbed_balanced_init(problem, scale=0.8, perturbation=0.05, seed=0)

    print(f"horizon T = {HORIZON}, reference: RK4 at h = {min(H_LIST) / 100:g}\n")
    for scheme, report in estimate_order(start, objective, HORIZON, H_LIST).items():
        print(f"{scheme.value}: observed order {report.observed_order:.3f}")
        for h, defect in zip(report.step_sizes, report.defects):
            print(f"    h = {h:<6g} terminal defect = {defect:.3e}")
        print()


if __name__ == "__main__":
    main()
