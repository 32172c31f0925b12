#include "src/support/governor.h"

#include "src/support/telemetry.h"

namespace refscan {
namespace governor_detail {

constinit thread_local DeadlineState g_deadline;

void ThrowDeadlineExceeded(const char* where) {
  TelemetryCount("governor.deadline_trips");
  throw DeadlineExceeded(std::string("per-file deadline exceeded in ") + where + " loop");
}

}  // namespace governor_detail
}  // namespace refscan
