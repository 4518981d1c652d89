"""Compiler passes: solve scheduling, the §4 partition verdict and the
UC → C* backend.

* :mod:`solve_sched` — static dependency scheduling for ``solve`` (§3.6 /
  reference [14] of the paper): turns a proper set of assignments into a
  level-by-level ``seq``/``par`` execution plan.
* :mod:`processor_opt` — virtual-processor count deduction (§4): the one
  verdict on reductions whose predicate partitions the operand set, so
  they run with |operands| processors instead of |results|·|operands|.
* :mod:`cstar_ast` / :mod:`cstar_gen` — the C* target: translates UC
  programs into C*-style domain declarations and parallel member code
  (both as source text, mirroring the paper's appendix, and as runnable
  :mod:`repro.cstar` runtime calls).

The static analysis that classifies references and proposes maps is
:mod:`repro.analysis`.  Nothing here is imported eagerly: a plain run
loads only the modules its engines call.
"""
