#ifndef LBSAGG_TESTS_COUNTING_NEW_H_
#define LBSAGG_TESTS_COUNTING_NEW_H_

// Counters of the global operator new that counting_new.cc replaces: link
// that file into a test binary and it counts every allocation and its
// bytes, so a test can bound a path's heap traffic. The replacement lives
// in its own file so that no test's code inlines it.

#include <atomic>
#include <cstdint>

namespace lbsagg {
namespace testing_alloc {

extern std::atomic<uint64_t> g_allocations;
extern std::atomic<uint64_t> g_bytes;
// Blocks returned through operator delete (null pointers not counted).
extern std::atomic<uint64_t> g_deallocations;

}  // namespace testing_alloc
}  // namespace lbsagg

#endif  // LBSAGG_TESTS_COUNTING_NEW_H_
