"""FIFO bandwidth resources via a reservation calculus.

Disks, NICs and CPUs are all *serial, non-preemptive, FIFO* servers in this
model.  For such a server there is a closed form for queueing: a request
arriving at time ``t`` needing ``s`` seconds of service completes at
``max(t, busy_until) + s`` and pushes ``busy_until`` to that completion
time.  :meth:`BandwidthResource.reserve_at_rate` and
:meth:`~BandwidthResource.reserve_time` implement exactly that, returning
a :class:`~repro.cluster.events.Timeout` the caller waits on.

The calculus is O(1) per request, which is what lets a multi-terabyte
parameter sweep (Figure 6 of the paper goes to 2 billion tuples) simulate
in well under a second — per the HPC guides, the hot path does arithmetic,
not bookkeeping.

A resource keeps no record of what it served: each reservation is
announced as the engine's ``reserve`` event (DESIGN.md §13), which is the
one record of device time — a subscriber that wants utilisation sums it.
"""

from __future__ import annotations

from repro.cluster.events import SimEngine, Timeout

__all__ = ["BandwidthResource"]


class BandwidthResource:
    """A serial FIFO server with a fixed service rate.

    Parameters
    ----------
    engine:
        The simulation engine whose clock orders reservations.
    bandwidth:
        Service rate in bytes/second (for byte-sized requests); requests may
        also reserve raw seconds via :meth:`reserve_time` (CPU work).
    latency:
        Fixed per-request overhead in seconds (seek time, interrupt cost,
        message setup).  Defaults to 0.
    name:
        Diagnostic label used in reports.
    """

    def __init__(
        self,
        engine: SimEngine,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ):
        # ``not >``/``not >=``: NaN fails every comparison, so these refuse it
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not latency >= 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._busy_until = 0.0

    # -- reservation ------------------------------------------------------------

    def service_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def reserve_time(self, seconds: float) -> Timeout:
        """Reserve the resource for a raw duration (CPU work)."""
        # a NaN duration would make busy_until NaN, and max(now, NaN) is
        # now: the next request would find the FIFO queue empty
        if not seconds >= 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        return self._reserve_seconds(seconds, 0)

    def reserve_at_rate(self, nbytes: int, bandwidth: float) -> Timeout:
        """Reserve ``nbytes`` served at an explicit rate.

        Used for devices whose rate depends on the operation direction
        (IDE disks read faster than they write) while remaining one serial
        FIFO device.
        """
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        return self._reserve_seconds(self.latency + nbytes / bandwidth, nbytes)

    def _reserve_seconds(self, service: float, nbytes: int) -> Timeout:
        engine = self.engine
        now = engine.now
        start = max(now, self._busy_until)
        completion = start + service
        self._busy_until = completion
        if engine._subscribers:
            engine._emit("reserve", self.name, now, start, completion, nbytes)
        return Timeout(engine, completion - now)

    # -- coordinated multi-resource reservation ------------------------------------

    @staticmethod
    def reserve_joint(resources: "list[BandwidthResource]", nbytes: int) -> Timeout:
        """Reserve several resources for one transfer simultaneously.

        Models store-and-forward operations that occupy multiple serial
        devices at once (sender NIC + receiver NIC, or disk + NICs): the
        operation starts when *all* resources are free, runs at the rate of
        the *slowest*, and occupies all of them until it completes.
        """
        if not resources:
            raise ValueError("need at least one resource")
        service = max(r.service_time(nbytes) for r in resources)
        return BandwidthResource.reserve_joint_seconds(resources, service, nbytes)

    @staticmethod
    def reserve_pipeline(resources: "list[BandwidthResource]", nbytes: int) -> Timeout:
        """Reserve a *pipelined* multi-device operation.

        The operation starts when every device is free and completes after
        the slowest device's service time — but each device is occupied
        only for its *own* service time (a fast disk feeding a slow NIC
        reads ahead into a buffer and frees up early for the next
        request).  This preserves fast devices' headroom, which is what
        keeps a saturated fan-in from convoying.
        """
        if not resources:
            raise ValueError("need at least one resource")
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        engine = resources[0].engine
        now = start = engine.now
        for r in resources:
            if r._busy_until > start:
                start = r._busy_until
        completion = start
        emit = engine._subscribers
        for r in resources:
            service = r.latency + nbytes / r.bandwidth
            end = r._busy_until = start + service
            if end > completion:
                completion = end
            if emit:
                engine._emit("reserve", r.name, now, start, end, nbytes)
        return Timeout(engine, completion - now)

    @staticmethod
    def reserve_joint_seconds(
        resources: "list[BandwidthResource]", seconds: float, nbytes: int = 0
    ) -> Timeout:
        """Joint reservation with an explicit duration.

        Used when an operation's pace is set by one device but it blocks
        others for its whole duration — e.g. a single-threaded QES instance
        writing a received batch to its scratch disk cannot service its NIC
        meanwhile.
        """
        if not resources:
            raise ValueError("need at least one resource")
        if not seconds >= 0:
            raise ValueError("seconds must be >= 0")
        engine = resources[0].engine
        now = start = engine.now
        for r in resources:
            if r._busy_until > start:
                start = r._busy_until
        completion = start + seconds
        emit = engine._subscribers
        for r in resources:
            r._busy_until = completion
            if emit:
                engine._emit("reserve", r.name, now, start, completion, nbytes)
        return Timeout(engine, completion - now)
