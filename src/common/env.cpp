#include "common/env.hpp"

#include <cstdio>
#include <set>

#include "common/mutex.hpp"

namespace sf {

void env_warn_once(const char* name, const char* value,
                   const char* expected) {
  static Mutex mu;
  static std::set<std::string> warned;  // guarded by mu
  LockGuard lock(mu);
  if (!warned.insert(name).second) return;
  std::fprintf(stderr, "stencilfold: ignoring %s=\"%s\" (expected %s)\n",
               name, value, expected);
}

}  // namespace sf
