"""Models each workload names, kept free of heavy imports so that a set-up
probe can time ``import mdlab`` and the model builds from a cold start."""

MODEL_FILE_TEXT = """\
states = lo mid hi
denom = 2
f_num = -2 1 3
transition = 0.5 0.3 0.2  0.25 0.5 0.25  0.1 0.4 0.5
"""
FILE_TRANSITION = [[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.4, 0.5]]
FILE_F_NUM, FILE_DENOM = [-2, 1, 3], 2

RHO = 0.4

# every model a workload names, as (builtin name, parameters); "file" is the
# model definition file above
MODELS = {
    "oracle_dense": [("dyadic_contracting", {"L": 6}), ("file", {})],
    "long_horizon": [("two_state", {"rho": RHO}), ("dyadic_contracting", {"L": 6}),
                     ("moving_average", {"c": 1.0, "L_trunc": 20}),
                     ("dyadic_contracting", {"L": 9}), ("rademacher", {})],
    "monte_carlo": [("two_state", {"rho": RHO}), ("dyadic_contracting", {"L": 6}),
                    ("moving_average", {"c": 1.0, "L_trunc": 20})],
}


def build_models(mdlab, workload: str) -> list:
    out = []
    for name, params in MODELS[workload]:
        if name == "file":
            out.append(mdlab.models.parse_model_text(MODEL_FILE_TEXT, name="file.model"))
        else:
            out.append(mdlab.models.builtin(name, **params))
    return out
