// §6.4 demonstration: the MyProxy protocol rebound over HTTP.
//
// The paper calls the native protocol "quickly designed as a prototype" and
// proposes HTTP "for compatibility with standard web-oriented libraries."
// The server's HTTP binding serves exactly that, on its one native port: a
// full myproxy-get-delegation in ONE mutually-authenticated round trip —
// the CSR travels in the request body, the signed certificate chain comes
// back in the response. The server picks the codec from the first message,
// so the native client and the HTTP client below talk to the same listener.
#include <iostream>

#include "client/myproxy_client.hpp"
#include "common/error.hpp"
#include "example_util.hpp"
#include "gsi/proxy.hpp"
#include "portal/http.hpp"

int main() {
  using namespace myproxy;  // NOLINT(google-build-using-namespace) example
  using examples::banner;

  examples::VirtualOrganization vo;

  // One repository server, one port: native protocol and HTTP binding.
  examples::RepositoryFixture native(vo);
  const std::uint16_t port = native.server->port();
  std::cout << "native protocol and HTTP binding on port " << port << "\n";

  banner("store via the native protocol");
  const gsi::Credential alice = vo.user("Alice");
  const gsi::Credential alice_proxy = gsi::create_proxy(alice);
  client::MyProxyClient init(alice_proxy, vo.trust_store(), port);
  init.put("alice", "correct horse battery", alice_proxy);

  banner("retrieve via HTTP: one POST, chain in the response");
  const gsi::Credential portal = vo.portal("web-portal");
  gsi::DelegationRequest delegation = gsi::begin_delegation();

  // Build the POST by hand to show there is nothing but standard HTTP here.
  portal::HttpRequest request;
  request.method = "POST";
  request.target = "/get";
  request.version = "HTTP/1.1";
  request.headers["content-type"] = "application/x-www-form-urlencoded";
  request.body = "username=alice&passphrase=" +
                 portal::url_encode("correct horse battery") +
                 "&lifetime=3600&csr=" + portal::url_encode(delegation.csr_pem);

  const tls::TlsContext ctx = tls::TlsContext::make(portal);
  auto channel = tls::TlsChannel::connect(ctx, net::tcp_connect(port));
  channel->send(request.serialize());
  const portal::HttpResponse response =
      portal::parse_response(channel->receive());
  std::cout << "HTTP " << response.status << " " << response.reason << "\n";

  const gsi::Credential delegated =
      gsi::complete_delegation(std::move(delegation.key), response.body);
  std::cout << "delegated identity: " << delegated.identity().str()
            << " (depth " << delegated.delegation_depth() << ", "
            << format_duration(delegated.remaining_lifetime())
            << " remaining)\n";

  banner("the same credential verifies like any GSI proxy");
  const auto id = vo.trust_store().verify(delegated.full_chain());
  std::cout << "verified: " << id.identity.str() << "\n";

  return 0;
}
