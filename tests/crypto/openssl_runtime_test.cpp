// The tests must compile against and run the OpenSSL the library is built
// with, which is also the one the programs and benchmarks load: a test
// binary that reads another installation's headers or resolves its
// libcrypto at run time exercises code the measured programs never run.
#include <gtest/gtest.h>

#include <string>

#include <openssl/crypto.h>
#include <openssl/opensslv.h>

namespace {

TEST(OpenSslRuntime, MatchesTheHeaders) {
  const std::string headers = OPENSSL_VERSION_TEXT;
  const std::string runtime = OpenSSL_version(OPENSSL_VERSION);
  // MYPROXY_OPENSSL_VERSION is what the build found for the library.
  EXPECT_EQ(std::string(MYPROXY_OPENSSL_VERSION)
                .rfind(std::to_string(OPENSSL_VERSION_MAJOR) + "." +
                           std::to_string(OPENSSL_VERSION_MINOR) + ".",
                       0),
            0u)
      << "library built with " << MYPROXY_OPENSSL_VERSION
      << ", tests compiled with " << headers;
  EXPECT_EQ(OPENSSL_version_major(),
            static_cast<unsigned int>(OPENSSL_VERSION_MAJOR))
      << "runtime " << runtime << ", headers " << headers;
  EXPECT_EQ(OPENSSL_version_minor(),
            static_cast<unsigned int>(OPENSSL_VERSION_MINOR))
      << "runtime " << runtime << ", headers " << headers;
}

}  // namespace
