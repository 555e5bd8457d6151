"""Dimension scaling of the one-step output contributions.

On the toy regression problem the one-step change of the model output
(B A) s splits into per-stage contributions. Training is dimension-robust
when every contribution stays flat as the model dimension n grows: the
same step size then trains every width at the same output speed. The RK4
flow keeps all eight contributions flat; the log-log slope against n is
the scaling exponent (0 = flat).

The full acceptance-scale sweep uses n up to 1024 with 5 seeds; this demo
keeps a smaller grid so it finishes in a few seconds. Pass --full for the
large one.
"""

import sys

from odelora import feature_scaling_experiment


def main(full: bool = False):
    n_list = [64, 128, 256, 512, 1024] if full else [32, 64, 128, 256]
    seeds = 5 if full else 2
    print(f"dimensions {n_list}, {seeds} seeds, 20 steps, h = 0.1\n")
    for scheme, result in feature_scaling_experiment(n_list, steps=20, h=0.1, seeds=seeds).items():
        print(scheme.value)
        for comp in sorted(result.slopes):
            slope = result.slopes[comp]
            medians = "  ".join(f"{result.medians[(n, comp)]:.2e}" for n in n_list)
            slope_str = f"{slope:+.3f}" if slope is not None else "   n/a"
            print(f"    component {comp}: slope {slope_str}   medians {medians}")
        print()


if __name__ == "__main__":
    main(full="--full" in sys.argv[1:])
