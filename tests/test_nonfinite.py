"""Non-finite numbers are rejected where they enter the package.

nan compares false with everything, so range checks alone let it through
(and max(0.0, nan) is 0.0); the eigensolver returns nan eigenvalues
without raising. Every entry point must raise InvalidStateError instead.
"""

import json
import math

import numpy as np
import pytest

from xree import BlochZParams, DensityMatrix, hermitian_eig, x_state, x_state_from_bloch
from xree.cli import EXIT_INVALID, main
from xree.errors import InvalidStateError, NumericalError
from xree.ree import closed_form_family_ree, compute_ree
from xree.states import XStateParams, named_state

NAN = math.nan
INF = math.inf
# an integer literal far above the largest double
BIG = "1" + "0" * 399


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: x_state(NAN, 0.4, 0.3, 0.3, 0.3), id="a1-nan"),
        pytest.param(lambda: x_state(0.3, NAN, 0.3, 0.4, 0.0), id="a2-nan"),
        pytest.param(lambda: x_state(0.3, 0.4, NAN, 0.3, 0.0), id="a3-nan"),
        pytest.param(lambda: x_state(0.3, 0.3, 0.4, NAN, 0.0), id="a4-nan"),
        pytest.param(lambda: x_state(0.1, 0.4, 0.3, 0.2, NAN), id="d-nan"),
        pytest.param(lambda: x_state(0.1, 0.4, 0.3, 0.2, 0.1, NAN), id="phi-nan"),
        pytest.param(lambda: x_state(0.1, 0.4, 0.3, 0.2, 0.1, INF), id="phi-inf"),
        pytest.param(lambda: x_state_from_bloch(BlochZParams(NAN, 0, 0, 0)), id="r-nan"),
        pytest.param(lambda: x_state_from_bloch(BlochZParams(0, NAN, 0, 0)), id="s-nan"),
        pytest.param(lambda: x_state_from_bloch(BlochZParams(0, 0, NAN, 0)), id="gx-nan"),
        pytest.param(lambda: x_state_from_bloch(BlochZParams(0, 0, 0, NAN)), id="gz-nan"),
        pytest.param(
            lambda: x_state_from_bloch(BlochZParams(0, 0, 0.1, 0, NAN)), id="bloch-phi-nan"
        ),
        pytest.param(lambda: closed_form_family_ree("vp", (NAN, 0.5, 0.5)), id="vp-nan"),
        pytest.param(
            lambda: closed_form_family_ree("horodecki", (0.5, NAN, 0.5)), id="horodecki-nan"
        ),
        pytest.param(
            lambda: closed_form_family_ree("bell_diagonal", (0.0, 0.0, 1.0, NAN)),
            id="bell-diagonal-nan",
        ),
        pytest.param(lambda: named_state("vp", NAN, 0.5, 0.5), id="named-vp-nan"),
        pytest.param(lambda: XStateParams(NAN, 0.4, 0.3, 0.3, 0.3), id="params-a1-nan"),
        pytest.param(lambda: XStateParams(0.1, 0.4, 0.3, 0.2, NAN), id="params-d-nan"),
        pytest.param(
            lambda: XStateParams(0.1, 0.4, 0.3, 0.2, 0.1, -INF), id="params-phi-inf"
        ),
        pytest.param(
            lambda: compute_ree(XStateParams(NAN, 0.4, 0.3, 0.3, 0.3)),
            id="compute-ree-params-nan",
        ),
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(InvalidStateError):
        build()


class TestMatrixPath:
    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("consume", [hermitian_eig, DensityMatrix.from_matrix])
    def test_non_finite_entry_rejected(self, consume, entry, value):
        m = np.eye(4, dtype=complex) / 4.0
        i, j = entry
        m[i, j] = m[j, i] = value
        with pytest.raises(InvalidStateError):
            consume(m)

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError):
            hermitian_eig(np.eye(4) / 4.0)

    def test_cli_family_weight_nan_exits_invalid(self, capsys):
        assert main(["compute", "--family", "vp:nan,0.5,0.5"]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_cli_params_nan_exits_invalid(self, capsys):
        assert main(["compute", "--params", "nan,0.4,0.3,0.3,0.3"]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_cli_matrix_document_nan_exits_invalid(self, tmp_path, capsys):
        pairs = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        pairs[1][2] = pairs[2][1] = [NAN, 0.0]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"matrix": pairs}))
        assert main(["compute", "--input", str(path)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, literal",
    [
        pytest.param(
            "scan", '{"mode": "simplex", "p": NaN, "split": 0.4, "steps": 2}', "NaN",
            id="simplex-p-nan",
        ),
        pytest.param(
            "scan",
            '{"mode": "line", "family": "theorem3_example", "count": 5,'
            ' "from": [0.66, 0.16, 0.03, 0.06, 0.09], "to": [0.66, 0.05, Infinity, 0.04, 0.18]}',
            "Infinity",
            id="line-to-infinity",
        ),
        pytest.param(
            "compute",
            '{"params": {"A1": 0.1, "A2": 0.4, "A3": 0.3, "A4": 0.2, "D": 1e999}}',
            "1e999",
            id="state-overflow",
        ),
        pytest.param(
            "compute",
            '{"params": {"A1": %s, "A2": 0.4, "A3": 0.3, "A4": 0.2, "D": 0.1}}' % BIG,
            BIG,
            id="state-integer-overflow",
        ),
        pytest.param(
            "scan",
            '{"mode": "line", "family": "theorem3_example", "count": 5,'
            ' "from": [%s, 0.16, 0.03, 0.06, 0.09], "to": [0.66, 0.05, 0.07, 0.04, 0.18]}'
            % BIG,
            BIG,
            id="line-from-integer-overflow",
        ),
        pytest.param(
            "scan",
            '{"mode": "raw", "axes": {"a1": %s, "a2": 0.4, "a3": 0.3, "a4": 0.2, "d": 0.1}}'
            % BIG,
            BIG,
            id="raw-axis-integer-overflow",
        ),
        pytest.param(
            "scan",
            '{"mode": "simplex", "p": 0.66, "split": 0.4, "steps": %s}' % ("9" * 4301),
            "9" * 4301,
            id="simplex-steps-over-int-digit-limit",
        ),
    ],
)
def test_non_finite_document_number_exits_invalid(tmp_path, capsys, command, text, literal):
    # json reads NaN and Infinity and overflows 1e999 to inf; a nan grid
    # number passes the schema's range tests and would scan nothing; an
    # integer too large for a double overflows at its first use, and one of
    # more than 4300 digits fails inside json.load
    path = tmp_path / "doc.json"
    path.write_text(text)
    flag = "--grid" if command == "scan" else "--input"
    assert main([command, flag, str(path)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().endswith(f"document holds the non-finite number {literal}")
