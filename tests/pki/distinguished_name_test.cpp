#include "pki/distinguished_name.hpp"

#include <gtest/gtest.h>

#include <openssl/x509.h>

#include "common/error.hpp"
#include "common/mutation.hpp"

namespace myproxy::pki {
namespace {

TEST(DistinguishedName, ParseAndRender) {
  const auto dn = DistinguishedName::parse("/C=US/O=Grid/OU=People/CN=Alice");
  EXPECT_EQ(dn.size(), 4u);
  EXPECT_EQ(dn.str(), "/C=US/O=Grid/OU=People/CN=Alice");
  EXPECT_EQ(dn.common_name(), "Alice");
}

TEST(DistinguishedName, ParseEmpty) {
  const auto dn = DistinguishedName::parse("");
  EXPECT_TRUE(dn.empty());
  EXPECT_EQ(dn.str(), "");
  EXPECT_EQ(dn.common_name(), "");
}

TEST(DistinguishedName, RejectsMalformedInput) {
  EXPECT_THROW(DistinguishedName::parse("C=US/O=Grid"), ParseError);
  EXPECT_THROW(DistinguishedName::parse("/C=US//CN=x"), ParseError);
  EXPECT_THROW(DistinguishedName::parse("/novalue"), ParseError);
  EXPECT_THROW(DistinguishedName::parse("/=US"), ParseError);
  EXPECT_THROW(DistinguishedName::parse("/C="), ParseError);
  EXPECT_THROW(DistinguishedName::parse("/NOTANATTR=x"), ParseError);
}

TEST(DistinguishedName, EscapedSlashInValue) {
  const auto dn = DistinguishedName::parse("/O=Grid/CN=web\\/portal");
  EXPECT_EQ(dn.common_name(), "web/portal");
  // str() must escape again so the representation round-trips.
  EXPECT_EQ(DistinguishedName::parse(dn.str()), dn);
}

TEST(DistinguishedName, X509NameRoundTrip) {
  const auto dn = DistinguishedName::parse("/C=US/O=Grid/CN=Alice");
  X509_NAME* name = dn.to_x509_name();
  const auto back = DistinguishedName::from_x509_name(name);
  X509_NAME_free(name);
  EXPECT_EQ(back, dn);
}

TEST(DistinguishedName, WithCnAppendsComponent) {
  const auto user = DistinguishedName::parse("/O=Grid/CN=Alice");
  const auto proxy = user.with_cn(kProxyCn);
  EXPECT_EQ(proxy.str(), "/O=Grid/CN=Alice/CN=proxy");
  EXPECT_EQ(proxy.common_name(), "proxy");
  EXPECT_EQ(proxy.parent(), user);
}

TEST(DistinguishedName, ExtendsByOneCn) {
  const auto user = DistinguishedName::parse("/O=Grid/CN=Alice");
  const auto proxy = user.with_cn(kProxyCn);
  std::string cn;
  EXPECT_TRUE(proxy.extends_by_one_cn(user, &cn));
  EXPECT_EQ(cn, "proxy");

  // Not an extension: same DN, different base, two-component extension,
  // non-CN extension.
  EXPECT_FALSE(user.extends_by_one_cn(user));
  EXPECT_FALSE(proxy.extends_by_one_cn(DistinguishedName::parse("/O=Grid")));
  const auto deep = proxy.with_cn(kProxyCn);
  EXPECT_FALSE(deep.extends_by_one_cn(user));
  const auto ou = DistinguishedName::parse("/O=Grid/CN=Alice/OU=Lab");
  EXPECT_FALSE(ou.extends_by_one_cn(user));
}

TEST(DistinguishedName, OrderMatters) {
  const auto a = DistinguishedName::parse("/O=Grid/C=US");
  const auto b = DistinguishedName::parse("/C=US/O=Grid");
  EXPECT_FALSE(a == b);
}

TEST(DistinguishedName, ComparisonIsTotal) {
  const auto a = DistinguishedName::parse("/CN=a");
  const auto b = DistinguishedName::parse("/CN=b");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a <= a);
}

TEST(DistinguishedName, ParentOfEmptyIsEmpty) {
  EXPECT_TRUE(DistinguishedName().parent().empty());
}


TEST(DistinguishedName, ParseSurvivesMutations) {
  // The ticket identity (unseal_identity) and configuration ACLs reach this
  // parser. It may only refuse with ParseError; what it accepts renders
  // back to itself.
  const auto input = encoding::to_bytes(
      "/C=US/O=Grid/OU=People/CN=Alice \\/ Bob/CN=proxy");
  const auto donor = encoding::to_bytes(
      "/DC=org/DC=example/OU=Services/CN=host\\/myproxy.example.org");
  int accepted = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::string text =
        encoding::to_string(mutation::mutate(input, donor, i));
    DistinguishedName dn;
    try {
      dn = DistinguishedName::parse(text);
    } catch (const ParseError&) {
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_EQ(DistinguishedName::parse(dn.str()), dn) << "case " << i;
    // Building an X509_NAME either works or refuses with a typed error
    // (values need not be UTF-8).
    try {
      X509_NAME_free(dn.to_x509_name());
    } catch (const Error&) {
    }
  }
  EXPECT_EQ(accepted + refused, 1000);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace myproxy::pki
