#include "protocol/message.hpp"

#include <gtest/gtest.h>

#include "common/encoding.hpp"
#include "common/error.hpp"
#include "common/mutation.hpp"

namespace myproxy::protocol {
namespace {

TEST(Request, SerializeParseRoundTrip) {
  Request request;
  request.command = Command::kPut;
  request.username = "alice";
  request.passphrase = "correct horse=battery";  // '=' in value survives
  request.auth_mode = AuthMode::kOtp;
  request.lifetime = Seconds(43200);
  request.credential_name = "compute";
  request.new_passphrase = "next phrase";
  request.retriever_patterns = {"/O=Grid/CN=portal-*", "/O=Grid/CN=p2"};
  request.renewer_patterns = {"/O=Grid/CN=condor"};
  request.want_limited = true;
  request.restriction = "rights=job-submit";
  request.task = "transfer";

  const Request back = Request::parse(request.serialize());
  EXPECT_EQ(back.command, Command::kPut);
  EXPECT_EQ(back.username, "alice");
  EXPECT_EQ(back.passphrase, "correct horse=battery");
  EXPECT_EQ(back.auth_mode, AuthMode::kOtp);
  EXPECT_EQ(back.lifetime, Seconds(43200));
  EXPECT_EQ(back.credential_name, "compute");
  EXPECT_EQ(back.new_passphrase, "next phrase");
  EXPECT_EQ(back.retriever_patterns, request.retriever_patterns);
  EXPECT_EQ(back.renewer_patterns, request.renewer_patterns);
  EXPECT_TRUE(back.want_limited);
  EXPECT_EQ(back.restriction, request.restriction);
  EXPECT_EQ(back.task, "transfer");
}

TEST(Request, DefaultsSurviveRoundTrip) {
  Request request;
  request.username = "bob";
  const Request back = Request::parse(request.serialize());
  EXPECT_EQ(back.command, Command::kGet);
  EXPECT_EQ(back.auth_mode, AuthMode::kPassphrase);
  EXPECT_EQ(back.lifetime, Seconds(0));
  EXPECT_FALSE(back.want_limited);
  EXPECT_FALSE(back.restriction.has_value());
  EXPECT_TRUE(back.credential_name.empty());
}

TEST(Request, ParseRejectsMalformed) {
  EXPECT_THROW(Request::parse("no equals sign"), ProtocolError);
  EXPECT_THROW(Request::parse("COMMAND=0\n"), ProtocolError);  // no VERSION
  EXPECT_THROW(Request::parse("VERSION=MYPROXYv2\n"), ProtocolError);
  EXPECT_THROW(Request::parse("VERSION=MYPROXYv1\nCOMMAND=0\n"),
               ProtocolError);
  EXPECT_THROW(Request::parse("VERSION=MYPROXYv2\nCOMMAND=99\n"),
               ProtocolError);
  EXPECT_THROW(Request::parse("VERSION=MYPROXYv2\nCOMMAND=abc\n"),
               ProtocolError);
  EXPECT_THROW(Request::parse("VERSION=MYPROXYv2\nCOMMAND=0\nLIFETIME=-1\n"),
               ProtocolError);
  EXPECT_THROW(
      Request::parse("VERSION=MYPROXYv2\nCOMMAND=0\nAUTH_MODE=magic\n"),
      ProtocolError);
}

TEST(Request, UnknownKeysIgnoredForForwardCompatibility) {
  const Request back = Request::parse(
      "VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=x\nFUTURE_FIELD=hello\n");
  EXPECT_EQ(back.username, "x");
}

TEST(Request, SerializeRejectsNewlineInjection) {
  Request request;
  request.username = "alice\nCOMMAND=3";  // attempt to smuggle a DESTROY
  EXPECT_THROW((void)request.serialize(), ProtocolError);
}

TEST(Response, OkRoundTrip) {
  const Response back = Response::parse(Response::make_ok().serialize());
  EXPECT_TRUE(back.ok());
  EXPECT_TRUE(back.error.empty());
}

TEST(Response, ErrorRoundTrip) {
  const Response back =
      Response::parse(Response::make_error("bad pass phrase").serialize());
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.error, "bad pass phrase");
}

TEST(Response, FieldsRoundTripIncludingMultiValue) {
  Response response;
  response.fields["NAMES"] = "a\x1f"
                             "b\x1f"
                             "c";
  response.fields["OWNER"] = "/O=Grid/CN=alice";
  const Response back = Response::parse(response.serialize());
  EXPECT_EQ(back.fields.at("NAMES"),
            "a\x1f"
            "b\x1f"
            "c");
  EXPECT_EQ(back.fields.at("OWNER"), "/O=Grid/CN=alice");
}

TEST(Response, ParseRejectsMalformed) {
  EXPECT_THROW(Response::parse(""), ProtocolError);
  EXPECT_THROW(Response::parse("VERSION=MYPROXYv2\n"), ProtocolError);
  EXPECT_THROW(Response::parse("VERSION=MYPROXYv2\nRESPONSE=7\n"),
               ProtocolError);
  EXPECT_THROW(Response::parse("RESPONSE=0\n"), ProtocolError);
}

// Both parsers read bytes from the network before authentication has
// decided anything. Each may only refuse with ProtocolError; what it accepts
// serializes back to text it accepts again, unchanged from then on.

TEST(Request, ParseSurvivesMutations) {
  Request request;
  request.command = Command::kPut;
  request.username = "alice";
  request.passphrase = "correct horse battery";
  request.auth_mode = AuthMode::kOtp;
  request.lifetime = Seconds(43200);
  request.credential_name = "compute";
  request.retriever_patterns = {"/O=Grid/CN=portal-*"};
  request.restriction = "rights=file-read";
  request.task = "analysis";
  Request donor;
  donor.command = Command::kMigrateInstall;
  donor.shard = 7;
  donor.sequence = 4242;
  donor.target = "7513";
  const auto input = encoding::to_bytes(request.serialize());
  const auto donor_bytes = encoding::to_bytes(donor.serialize());
  int accepted = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::string text =
        encoding::to_string(mutation::mutate(input, donor_bytes, i));
    Request parsed;
    try {
      parsed = Request::parse(text);
    } catch (const ProtocolError&) {
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_LE(static_cast<int>(parsed.command),
              static_cast<int>(kLastCommand))
        << "case " << i;
    EXPECT_FALSE(to_string(parsed.command).empty()) << "case " << i;
    const std::string again = parsed.serialize();
    EXPECT_EQ(Request::parse(again).serialize(), again) << "case " << i;
  }
  EXPECT_EQ(accepted + refused, 1000);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(Response, ParseSurvivesMutations) {
  Response response = Response::make_error("wrong shard: shard 3");
  response.fields["WRONG_SHARD"] = "1";
  response.fields["EPOCH"] = "12";
  response.fields["PRIMARY"] = "7512";
  response.fields["NAMES"] = "a\x1f(default)";
  Response donor;
  donor.fields["BUSY"] = "1";
  donor.fields["RETRY_AFTER_MS"] = "250";
  const auto input = encoding::to_bytes(response.serialize());
  const auto donor_bytes = encoding::to_bytes(donor.serialize());
  int accepted = 0;
  int refused = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::string text =
        encoding::to_string(mutation::mutate(input, donor_bytes, i));
    Response parsed;
    try {
      parsed = Response::parse(text);
    } catch (const ProtocolError&) {
      ++refused;
      continue;
    }
    ++accepted;
    const std::string again = parsed.serialize();
    EXPECT_EQ(Response::parse(again).serialize(), again) << "case " << i;
  }
  EXPECT_EQ(accepted + refused, 1000);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(CommandNames, Stable) {
  EXPECT_EQ(to_string(Command::kGet), "GET");
  EXPECT_EQ(to_string(Command::kPut), "PUT");
  EXPECT_EQ(to_string(Command::kRenew), "RENEW");
  EXPECT_EQ(to_string(AuthMode::kOtp), "otp");
}

}  // namespace
}  // namespace myproxy::protocol
