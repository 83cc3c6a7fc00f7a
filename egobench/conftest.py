from egobench.run import bootstrap

# the benchmark's tests import egohand from the same checkout as the benchmark
_error = bootstrap()
if _error is not None:
    raise ImportError(_error)
