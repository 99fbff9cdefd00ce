// Umbrella header: the public API of the MyProxy library.
//
// Fine-grained includes remain available (and are preferred inside the
// library itself); applications that want everything include this.
//
//   #include "myproxy.hpp"
//
//   myproxy::gsi::Credential proxy = myproxy::gsi::create_proxy(user);
//   myproxy::client::MyProxyClient client(proxy, trust_store, port);
//   client.put("alice", pass_phrase, proxy);
#pragma once

// Substrate
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/secure_buffer.hpp"

// Crypto & PKI
#include "crypto/key_pair.hpp"
#include "pki/certificate.hpp"
#include "pki/certificate_authority.hpp"
#include "pki/distinguished_name.hpp"
#include "pki/proxy_policy.hpp"
#include "pki/trust_store.hpp"

// GSI
#include "gsi/acl.hpp"
#include "gsi/credential.hpp"
#include "gsi/gridmap.hpp"
#include "gsi/proxy.hpp"

// MyProxy core
#include "client/myproxy_client.hpp"
#include "protocol/message.hpp"
#include "repository/repository.hpp"
#include "server/http_binding.hpp"
#include "server/myproxy_server.hpp"

// Applications
#include "grid/renewal_service.hpp"
#include "grid/resource_service.hpp"
#include "portal/grid_portal.hpp"
