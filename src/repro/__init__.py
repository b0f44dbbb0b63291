"""repro — a reproduction of "ECL: A Specification Environment for
System-Level Design" (Lavagno & Sentovich, DAC 1999).

Public API (stable):

* :func:`repro.lang.parse_text` — preprocess + lex + parse ECL source.
* :class:`repro.pipeline.Pipeline` — the staged compiler: named stages,
  content-addressed artifact cache, pluggable backend registry, and
  batched parallel design builds.
* :mod:`repro.core` — the Section 4 partition runner (Table 1's
  synchronous/asynchronous trade-off).
* :mod:`repro.runtime` / :mod:`repro.rtos` — synchronous and RTOS-based
  execution substrates.
* :mod:`repro.cost` — the MIPS-R3000-style memory/timing model behind the
  Table 1 reproduction.
* :mod:`repro.designs` — the paper's example sources (Figures 1-4 and the
  reconstructed audio buffer controller).
"""

__version__ = "1.0.0"
