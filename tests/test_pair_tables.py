"""The functions built on the node-pair table (grid._pair_blocks),
pinned to the bit.

The pins were recorded from the per-row loops that the blocked table
replaced (numpy 2.4, x86-64): sha256 of the weyl_bracket_matrix bytes,
float.hex of every scalar, and the lambda_alpha argmax.  The
right_weyl_derivative pins were recorded from a one-pair function that
the table has since replaced; they are read from the table's entries.  The sizes
cross the 64-row block edges; the constant driver ties every pair, within
a block and across blocks (the argmax must stay the first one), and the
jump driver puts the sup in the last block.
"""

import hashlib

import numpy as np
import pytest

from volterra_fbm.fraccalc import lambda_alpha, weyl_bracket_matrix
from volterra_fbm.grid import GridFunction, build_grid
from volterra_fbm.norms import holder_norm, w_1malpha_norm

_ALPHAS = {2: 0.3, 3: 0.01, 63: 0.49, 64: 0.2, 65: 0.3, 129: 0.45, 1000: 0.25}


def _sample(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full((n + 1, d), 1.5)
    v = 2.0 + np.cumsum(rng.normal(size=(n + 1, d)), axis=0) / np.sqrt(n)
    if kind == "jump":
        v = 0.1 * v
        v[-1] += 5.0
    return v


def _outputs(kind, n):
    alpha = _ALPHAS[n]
    h = 1.0 / n
    v = _sample(kind, n, 1, 1000 + n)[:, 0]
    lam, arg = lambda_alpha(v, h, alpha)
    pairs = sorted({(0, n), (1, 2), (n // 2, n), (n - 1, n)})
    grid = build_grid(1.0, n)
    table = weyl_bracket_matrix(v, h, alpha)
    out = {
        "lambda_alpha": (lam.hex(), tuple(int(i) for i in arg)),
        "weyl_bracket_matrix": hashlib.sha256(table.tobytes()).hexdigest(),
        # the pins of the retired one-pair function, read from the table
        "right_weyl_derivative": [float(table[a, i]).hex() for a, i in pairs],
        "w_1malpha_norm": w_1malpha_norm(v, h, alpha).hex(),
    }
    for d in (1, 3):
        f = GridFunction(grid, _sample(kind, n, d, n + d))
        out[f"holder_norm_d{d}"] = holder_norm(f, 1.0 - alpha).hex()
    return out


_PINS = {
    ("walk", 2): {
        "lambda_alpha": ("0x1.4da7891bae0dep+0", (1, 2)),
        "weyl_bracket_matrix": "e32dd96ae0da61424baf08ce923cbaac8d7b32cb5de28b5713deea21f04c3e76",
        "right_weyl_derivative": [
            "0x1.b289e6a86a4d1p+0",
            "-0x1.b11a17692fab6p+0",
        ],
        "w_1malpha_norm": "0x1.a5166f75e63fep+2",
        "holder_norm_d1": "0x1.983ed937411dep+2",
        "holder_norm_d3": "0x1.24da51ead3c3fp+2",
    },
    ("walk", 3): {
        "lambda_alpha": ("0x1.38fa61bb4e783p+1", (1, 3)),
        "weyl_bracket_matrix": "579ba0ae531830e850391709807d0d781a0e183f1527c34714a5860f12eaed4a",
        "right_weyl_derivative": [
            "0x1.d21d06fff2ed4p-3",
            "0x1.3a34d3761038ep+1",
            "0x1.3ad0dbd7a28c2p+1",
            "0x1.5e835bc2d16ffp-1",
        ],
        "w_1malpha_norm": "0x1.ee047473451f2p+7",
        "holder_norm_d1": "0x1.6db3bcbb1bca8p+2",
        "holder_norm_d3": "0x1.12370da4fcbaap+3",
    },
    ("walk", 63): {
        "lambda_alpha": ("0x1.023aebb11c3a6p+1", (48, 62)),
        "weyl_bracket_matrix": "a7668befe03645e15559f608a823c0cb78e62a373916b4700d7fff82e8e39000",
        "right_weyl_derivative": [
            "0x1.f5a15b413cc5ep-1",
            "0x1.49e7bacf31da1p+0",
            "-0x1.bc583f6fafbb9p-1",
            "0x1.3ae6d5210d64fp-2",
        ],
        "w_1malpha_norm": "0x1.5caf4eb4b9c50p+3",
        "holder_norm_d1": "0x1.c881ce989bbb2p+2",
        "holder_norm_d3": "0x1.f9d20d2cd953ep+2",
    },
    ("walk", 64): {
        "lambda_alpha": ("0x1.70ccf33cff078p+3", (57, 59)),
        "weyl_bracket_matrix": "9b4aec1a468479a84862a1154776c65a7c41ca96a7786c81e5db66f29c1575c6",
        "right_weyl_derivative": [
            "-0x1.38bab1f6d1ad9p+1",
            "0x1.45b3228943824p-1",
            "-0x1.89fddbd15939cp+0",
            "-0x1.02f889a8097c1p+2",
        ],
        "w_1malpha_norm": "0x1.2a6195a2cd141p+6",
        "holder_norm_d1": "0x1.d9d0333517112p+3",
        "holder_norm_d3": "0x1.e4edc4328924ep+3",
    },
    ("walk", 65): {
        "lambda_alpha": ("0x1.ac372c5d916d7p+2", (3, 30)),
        "weyl_bracket_matrix": "26fadb52824b46e384004c4929755593f20faf455aa0eb2cef8f7d62fe6c2e9c",
        "right_weyl_derivative": [
            "0x1.adda1a7799573p-1",
            "-0x1.2bec28b7d327bp+2",
            "-0x1.da4c88d6d2e70p-1",
            "0x1.32df519482264p-2",
        ],
        "w_1malpha_norm": "0x1.1f511443d03b3p+5",
        "holder_norm_d1": "0x1.ffb6ea48a0321p+2",
        "holder_norm_d3": "0x1.778a4b62ed532p+3",
    },
    ("walk", 129): {
        "lambda_alpha": ("0x1.db7fe7e99b90dp+1", (96, 129)),
        "weyl_bracket_matrix": "9936960f5781b1c6a54edff4100d9e139faaef3fa222b633a6169f2029db5d53",
        "right_weyl_derivative": [
            "0x1.1fa0a060b8320p+2",
            "0x1.47304abb54d47p-2",
            "0x1.2b682a7d7b8a7p-2",
            "0x1.6613c41df71e4p+1",
        ],
        "w_1malpha_norm": "0x1.358fa29623e93p+4",
        "holder_norm_d1": "0x1.578cbf10bed24p+2",
        "holder_norm_d3": "0x1.0189f4ad34fb0p+3",
    },
    ("walk", 1000): {
        "lambda_alpha": ("0x1.388f425c1b50dp+4", (76, 85)),
        "weyl_bracket_matrix": "add3240ce1cf6885f703a102d0cc37cd68ad46a7298873beb1afbf9320bb08c6",
        "right_weyl_derivative": [
            "-0x1.b045193bd739cp+2",
            "0x1.1b40fa01cc7dep+0",
            "0x1.b289330dfb6acp-1",
            "0x1.9192921138832p+2",
        ],
        "w_1malpha_norm": "0x1.c91bba2a0e01bp+6",
        "holder_norm_d1": "0x1.2f08ac54ef308p+4",
        "holder_norm_d3": "0x1.9881450fc0502p+4",
    },
    ("constant", 65): {
        "lambda_alpha": ("0x0.0p+0", (1, 2)),
        "weyl_bracket_matrix": "5f60ac220126601d7279f1e9d432494002dc2d9dc064291e86927667e0ec16a9",
        "right_weyl_derivative": [
            "0x0.0p+0",
            "0x0.0p+0",
            "0x0.0p+0",
            "0x0.0p+0",
        ],
        "w_1malpha_norm": "0x0.0p+0",
        "holder_norm_d1": "0x1.8000000000000p+0",
        "holder_norm_d3": "0x1.4c8dc2e423980p+1",
    },
    ("constant", 129): {
        "lambda_alpha": ("0x0.0p+0", (1, 2)),
        "weyl_bracket_matrix": "b2faef56ed3f06474f33bf102a62a1b2c454ec7fa2f0d7604bafc21ccd65abc6",
        "right_weyl_derivative": [
            "0x0.0p+0",
            "0x0.0p+0",
            "0x0.0p+0",
            "0x0.0p+0",
        ],
        "w_1malpha_norm": "0x0.0p+0",
        "holder_norm_d1": "0x1.8000000000000p+0",
        "holder_norm_d3": "0x1.4c8dc2e423980p+1",
    },
    ("jump", 129): {
        "lambda_alpha": ("0x1.9352c36335ae8p+5", (128, 129)),
        "weyl_bracket_matrix": "934ae075c688ad2ae949d1c747f2874bca4b9aee62440463de50af28099b5953",
        "right_weyl_derivative": [
            "-0x1.0c59ea2d47ed1p+1",
            "0x1.05c03bc910a85p-5",
            "-0x1.d85a99e5dea56p+1",
            "-0x1.45e9083889e00p+6",
        ],
        "w_1malpha_norm": "0x1.d10a803e16b36p+7",
        "holder_norm_d1": "0x1.35eb667647698p+6",
        "holder_norm_d3": "0x1.0c9222a7c665ep+7",
    },
    ("jump", 1000): {
        "lambda_alpha": ("0x1.8fff5a756134bp+9", (999, 1000)),
        "weyl_bracket_matrix": "c919fcb044e32936dc705d2f3ccf3ef52cc806e5690d1a58e0158f9b08d21d51",
        "right_weyl_derivative": [
            "-0x1.070ad05cf3825p+1",
            "0x1.c534c33613fc9p-4",
            "-0x1.1e3ba55640c4ep+1",
            "-0x1.ea29e0bf6ff16p+9",
        ],
        "w_1malpha_norm": "0x1.15adad9881332p+12",
        "holder_norm_d1": "0x1.bf623d45498c7p+9",
        "holder_norm_d3": "0x1.82fc5c4c29a46p+10",
    },
}


@pytest.mark.parametrize("kind, n", list(_PINS))
def test_pair_table_outputs_unchanged(kind, n):
    assert _outputs(kind, n) == _PINS[(kind, n)]
