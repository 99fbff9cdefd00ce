#include "tool_util.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

#include "common/error.hpp"
#include "common/mutation.hpp"
#include "gsi/gsi_fixtures.hpp"
#include "gsi/proxy.hpp"

namespace myproxy::tools {
namespace {

/// Scratch path unique to this process, so concurrent test runs never share it.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "-" + std::to_string(::getpid()));
}

Args make_args(std::vector<std::string> argv,
               std::vector<std::string> value_flags) {
  std::vector<char*> raw;
  raw.push_back(const_cast<char*>("tool"));
  for (auto& arg : argv) raw.push_back(arg.data());
  return Args(static_cast<int>(raw.size()), raw.data(),
              std::move(value_flags));
}

TEST(Args, ParsesValueFlagsSwitchesAndPositionals) {
  auto args = make_args({"--port", "7512", "--limited", "file.pem"},
                        {"--port"});
  EXPECT_EQ(args.get("--port"), "7512");
  EXPECT_TRUE(args.has("--limited"));
  EXPECT_TRUE(args.has("--port"));
  EXPECT_FALSE(args.has("--missing"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.pem");
}

TEST(Args, GetOrFallsBack) {
  auto args = make_args({}, {"--port"});
  EXPECT_EQ(args.get_or("--port", "7512"), "7512");
  EXPECT_EQ(args.get("--port"), std::nullopt);
}

TEST(Args, ValueFlagWithoutValueThrows) {
  EXPECT_THROW(make_args({"--port"}, {"--port"}), ConfigError);
}

TEST(Args, RepeatedValueFlagKeepsLast) {
  auto args = make_args({"--port", "1", "--port", "2"}, {"--port"});
  EXPECT_EQ(args.get("--port"), "2");
}

TEST(Args, PortsFromArgsParsesEndpointLists) {
  auto single = make_args({"--port", "7512"}, {"--port"});
  EXPECT_EQ(ports_from_args(single),
            (std::vector<std::uint16_t>{7512}));

  auto list = make_args({"--port", "7512, 7513,7514"}, {"--port"});
  EXPECT_EQ(ports_from_args(list),
            (std::vector<std::uint16_t>{7512, 7513, 7514}));

  auto absent = make_args({}, {"--port"});
  EXPECT_EQ(ports_from_args(absent),
            (std::vector<std::uint16_t>{7512}));
}

TEST(Args, PortsFromArgsRejectsGarbage) {
  EXPECT_THROW(
      (void)ports_from_args(make_args({"--port", "web"}, {"--port"})),
      ConfigError);
  EXPECT_THROW(
      (void)ports_from_args(make_args({"--port", "70000"}, {"--port"})),
      ConfigError);
  EXPECT_THROW(
      (void)ports_from_args(make_args({"--port", ","}, {"--port"})),
      ConfigError);
}

TEST(FileIo, WriteReadRoundTrip) {
  const auto path = temp_path("myproxy-toolutil-test.txt");
  write_file(path, "contents\n");
  EXPECT_EQ(read_file(path), "contents\n");
  std::filesystem::remove(path);
  EXPECT_THROW((void)read_file(path), IoError);
}

TEST(FileIo, PrivateModeRestrictsPermissions) {
  const auto path = temp_path("myproxy-toolutil-priv.pem");
  write_file(path, "secret", /*private_mode=*/true);
  const auto perms = std::filesystem::status(path).permissions();
  EXPECT_EQ(perms & (std::filesystem::perms::group_all |
                     std::filesystem::perms::others_all),
            std::filesystem::perms::none);
  std::filesystem::remove(path);
}

TEST(CredentialIo, LoadCredentialAndTrustStore) {
  const auto dir = temp_path("myproxy-toolutil-cred-test");
  std::filesystem::create_directories(dir);

  const auto user = gsi::testing::make_user("toolutil-user");
  const SecureBuffer pem = user.to_pem();
  write_file(dir / "cred.pem", pem.view(), true);
  write_file(dir / "ca.pem",
             gsi::testing::test_ca().certificate().to_pem());

  const auto loaded = load_credential(dir / "cred.pem");
  EXPECT_EQ(loaded.identity(), user.identity());

  const auto store = load_trust_store(dir / "ca.pem");
  EXPECT_EQ(store.root_count(), 1u);
  EXPECT_NO_THROW((void)store.verify(gsi::create_proxy(loaded).full_chain()));

  std::filesystem::remove_all(dir);
}

TEST(CredentialIo, TrustStoreRefusesABundleWithANonDerRoot) {
  // Certificates must be DER (RFC 5280 §4.1). A root whose outer length is
  // written in a longer form than needed is BER that d2i_X509 accepts, but
  // it would not be the bytes it was read from, so the whole bundle is
  // refused rather than loaded with that root re-encoded.
  const auto dir = temp_path("myproxy-toolutil-ber-test");
  std::filesystem::create_directories(dir);
  const std::string root_pem = gsi::testing::test_ca().certificate().to_pem();
  auto der = mutation::pem_body(root_pem);
  ASSERT_EQ(der[1], 0x82);  // two length octets: make them three
  der[1] = 0x83;
  der.insert(der.begin() + 2, 0x00);
  write_file(dir / "ca.pem", root_pem + mutation::pem_wrap("CERTIFICATE", der));
  try {
    (void)load_trust_store(dir / "ca.pem");
    ADD_FAILURE() << "a non-DER root was loaded";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("certificate 2 is not in canonical DER"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(PassphraseInput, ReadsFromFileAndStripsNewline) {
  const auto path = temp_path("myproxy-toolutil-pp.txt");
  write_file(path, "my pass phrase\n");
  auto args = make_args({"--passphrase-file", path.string()},
                        {"--passphrase-file"});
  EXPECT_EQ(read_passphrase(args, "prompt"), "my pass phrase");
  std::filesystem::remove(path);
}

TEST(RunTool, MapsExceptionsToExitCodes) {
  EXPECT_EQ(run_tool("t", [] {}), 0);
  EXPECT_EQ(run_tool("t", [] { throw IoError("boom"); }), 1);
  EXPECT_EQ(run_tool("t", [] { throw std::runtime_error("boom"); }), 2);
}

}  // namespace
}  // namespace myproxy::tools
