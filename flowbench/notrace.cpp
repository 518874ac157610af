// The plain driver: no wrappers, so the recorder never sees a span.
#include "recorder.hpp"

namespace flowbench {
const bool kTraced = false;
}
