"""nbrefute: sound spectral refutation certificates for random k-XOR and CSP
instances, built on non-backtracking edge operators of weighted graphs.

Submodules:
  linalg          dense kernels, the matrix validator, the power bound and
                  exact brute-force oracles
  nonbacktracking every form of the oriented-edge operator (bundle, explicit,
                  companion), the determinant identity
  certify         lambda and infinity-to-one norm certificates, and the
                  Cholesky-verified diagonal witness
  instances       k-XOR / CSP instance sampling, evaluation, Fourier
                  transforms and brute-force optima
  refute          the XOR and CSP refutation chains and their audit
  walks           walk-sum identities for operator powers and traces, the
                  canonical-walk census and its ceiling, the rho(B)
                  experiment
  cli             command-line front end (gen / refute / audit /
                  check-identity / walks)
"""

__version__ = "0.1.0"

__all__ = [
    "linalg",
    "nonbacktracking",
    "certify",
    "instances",
    "refute",
    "walks",
    "cli",
]
