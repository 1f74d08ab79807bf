"""Long-lived analysis service: job store, executor, HTTP daemon.

Turns the one-shot CLI pipeline into a queueing system: ``repro serve``
starts an :class:`~repro.service.server.AnalysisService` (a durable,
digest-coalescing :class:`~repro.service.jobs.JobStore` fed by HTTP
submissions and drained by the bounded
:class:`~repro.service.executor.AnalysisExecutor`, which runs each job in
a claimer thread or on its own process pool over a shared profile cache),
and :class:`~repro.service.client.ServiceClient` /
``repro submit|jobs|result`` talk to it.  See ``docs/service.md``.
"""
