"""Root/TLD delegation server tests."""

import pytest

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import make_query
from repro.dnssrv.delegation import Delegation, DelegationServer


def make_root():
    return DelegationServer(
        "198.41.0.4",
        "",
        [Delegation("net", (("a.gtld-servers.net", "192.5.6.30"),))],
    )


class TestDelegationServer:
    def test_referral_structure(self):
        root = make_root()
        response = root.respond(make_query("or000.x.ucfsealresearch.net"))
        assert response.rcode == Rcode.NOERROR
        assert response.answers == []
        assert response.authorities[0].rtype == QueryType.NS
        assert response.authorities[0].name == "net"
        assert response.additionals[0].data.address == "192.5.6.30"
        assert not response.header.flags.aa
        assert not response.header.flags.ra

    def test_nxdomain_for_unknown_tld(self):
        root = make_root()
        response = root.respond(make_query("example.nosuchtld"))
        assert response.rcode == Rcode.NXDOMAIN

    def test_out_of_bailiwick_refused(self):
        tld = DelegationServer(
            "192.5.6.30",
            "net",
            [Delegation("ucfsealresearch.net", (("ns1.ucfsealresearch.net", "45.76.1.10"),))],
        )
        response = tld.respond(make_query("www.example.com"))
        assert response.rcode == Rcode.REFUSED

    def test_most_specific_delegation_wins(self):
        tld = DelegationServer("192.5.6.30", "net")
        tld.add_delegation(Delegation("example.net", (("ns.example.net", "1.1.1.1"),)))
        tld.add_delegation(
            Delegation("deep.example.net", (("ns.deep.example.net", "2.2.2.2"),))
        )
        delegation = tld.delegation_for("www.deep.example.net")
        assert delegation.zone == "deep.example.net"

    def test_delegation_must_be_in_zone(self):
        tld = DelegationServer("192.5.6.30", "net")
        with pytest.raises(ValueError):
            tld.add_delegation(Delegation("example.com", (("ns", "1.1.1.1"),)))

    def test_empty_question_formerr(self):
        from repro.dnslib.message import DnsMessage

        root = make_root()
        assert root.respond(DnsMessage()).rcode == Rcode.FORMERR

    def test_delegation_count(self):
        assert make_root().delegation_count == 1


class TestDelegationFastPath:
    """Templated referrals are the bytes respond()/encode would send."""

    QNAMES = [
        "a.ucfsealresearch.net", "bb.ucfsealresearch.net",
        "cc.ucfsealresearch.net", "dd.ucfsealresearch.net",
        "net", "gtld-servers.net", "a.gtld-servers.net",
        "x.a.gtld-servers.net", "ucfsealresearch.net",
        "example.nosuchtld", "n.example.nosuchtld",
    ]

    def serve(self, qnames, slow=False, rate_limiter=None, replace=False):
        from repro.dnslib.wire import encode_message
        from repro.netsim.network import Network
        from repro.netsim.packet import Datagram

        network = Network()
        server = DelegationServer(
            "198.41.0.4", "",
            [Delegation("net", (("a.gtld-servers.net", "192.5.6.30"),
                                ("b.gtld-servers.net", "192.5.6.31")))],
            rate_limiter=rate_limiter,
        )
        server._fast_ok = not slow
        server.attach(network)
        replies = []
        network.bind("10.0.0.9", 5353, lambda dg, net: replies.append(dg.payload))
        for index, qname in enumerate(qnames):
            if replace and index == len(qnames) // 2:
                # New name servers for the same zone: no stale template.
                server.add_delegation(
                    Delegation("net", (("c.gtld-servers.net", "192.5.6.32"),))
                )
            for qtype in (QueryType.A, QueryType.AAAA):
                network.send(Datagram(
                    "10.0.0.9", 5353, "198.41.0.4", 53,
                    encode_message(make_query(qname, qtype=qtype,
                                              msg_id=index + 1,
                                              recursion_desired=index % 2 == 0)),
                ))
            network.run()
        return replies, server

    def test_fast_replies_match_slow_oracle(self):
        fast, fast_server = self.serve(self.QNAMES * 3)
        slow, slow_server = self.serve(self.QNAMES * 3, slow=True)
        assert fast == slow
        assert fast_server.queries_served == slow_server.queries_served

    def test_guards_keep_a_same_length_name_off_the_template(self):
        # 18-character names cut and verify the template; the last has
        # the same length, but the NS target compresses against its
        # "gtld-servers.net" suffix, so the template must not serve it.
        qnames = [f"{letter * 14}.net" for letter in "abcdefg"]
        qnames.append("x.gtld-servers.net")
        fast, _ = self.serve(qnames)
        slow, _ = self.serve(qnames, slow=True)
        assert fast == slow

    def test_replaced_delegation_is_not_served_stale(self):
        qnames = [f"q{index}.ucfsealresearch.net" for index in range(12)]
        fast, _ = self.serve(qnames, replace=True)
        slow, _ = self.serve(qnames, slow=True, replace=True)
        assert fast == slow

    def test_rate_limited_replies_match_slow_oracle(self):
        from repro.dnssrv.ratelimit import ResponseRateLimiter

        def limiter():
            return ResponseRateLimiter(rate_per_second=1.0, burst=3.0)

        fast, fast_server = self.serve(self.QNAMES, rate_limiter=limiter())
        slow, slow_server = self.serve(
            self.QNAMES, slow=True, rate_limiter=limiter()
        )
        assert fast == slow
        assert len(fast) < 2 * len(self.QNAMES)  # some were suppressed
        assert fast_server.queries_served == slow_server.queries_served

    def test_respond_override_disables_fast_path(self):
        class Custom(DelegationServer):
            def respond(self, query):
                return super().respond(query)

        assert Custom("198.41.0.4", "")._fast_ok is False
        assert make_root()._fast_ok is True
