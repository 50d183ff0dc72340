// How many CPUs this process can actually use.
#pragma once

namespace djvu {

/// CPUs the calling thread may run on: the size of its affinity mask
/// (`sched_getaffinity`), so a process started under `taskset -c 0` sees 1
/// even though `std::thread::hardware_concurrency()` still reports every
/// core of the machine.  Falls back to `hardware_concurrency()` where the
/// mask cannot be read; never less than 1.
unsigned usable_cpus();

}  // namespace djvu
