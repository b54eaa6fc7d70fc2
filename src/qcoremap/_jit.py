"""Kept only for the benchmark's environment record, which reads
``NUMBA_ENABLED`` from here. No code in qcoremap is compiled with numba.
"""

NUMBA_ENABLED = False
