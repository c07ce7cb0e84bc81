#ifndef PERFBENCH_WRAPS_H_
#define PERFBENCH_WRAPS_H_

namespace perfbench::wraps {

/// Free the NTB region decorators once every node built so far is gone.
void ReleaseTaps();

}  // namespace perfbench::wraps

#endif  // PERFBENCH_WRAPS_H_
