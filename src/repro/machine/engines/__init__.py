"""The scheduler for the in-process (``sim``) backend.

:mod:`repro.machine.engines.event` holds the one engine: a deterministic
cooperative scheduler.  Exactly one rank runs at any instant, ranks hand
control back at every blocking Communicator call, and hangs are detected
by virtual-time quiescence instead of wall-clock timeouts.  It scales to
thousands of ranks.  Its observable behaviour — products, per-rank costs,
communication graphs, fault logs, campaign reports — is pinned by the
committed goldens (tests/machine/goldens.json; docs/MACHINE.md
"Scheduler").
"""
