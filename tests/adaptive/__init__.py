"""Shared helpers of the adaptivity tests."""


def record_steps(loop) -> list:
    """Keep every report ``loop.step`` returns, in order, in the list
    returned (the loop keeps none; a service tick report carries only
    the step's migration outcomes)."""
    reports = []
    step = loop.step

    def recorded(service, now):
        reports.append(step(service, now))
        return reports[-1]

    loop.step = recorded
    return reports
