"""Authoritative-server template fast path: equivalence and gating."""

from repro.dnslib.message import make_query
from repro.dnslib.wire import encode_message
from repro.dnslib.zone import parse_master_file
from repro.dnssrv.auth import AuthoritativeServer
from repro.injection.experiment import PoisoningAuthServer
from repro.netsim.network import Network
from repro.netsim.packet import Datagram

ZONE_TEXT = """\
$ORIGIN ucfsealresearch.net.
$TTL 300
@ IN SOA ns1 hostmaster 1 2 3 4 5
or000.0000000 IN A 45.76.1.10
or000.0000001 IN A 45.76.1.10
or000.0000002 IN A 45.76.1.10
www IN CNAME or000.0000000
"""

AUTH_IP = "45.76.1.1"
CLIENT_IP = "10.0.0.9"

QNAMES = [f"or000.000000{i}.ucfsealresearch.net" for i in range(3)]


def serve(server_cls=AuthoritativeServer, qnames=QNAMES, repeat=2):
    network = Network()
    auth = server_cls(AUTH_IP)
    auth.load_zone(parse_master_file(ZONE_TEXT))
    auth.attach(network)
    replies = []
    network.bind(CLIENT_IP, 5353, lambda dg, net: replies.append(dg.payload))
    msg_id = 0
    for _ in range(repeat):
        for qname in qnames:
            msg_id += 1
            network.send(
                Datagram(
                    CLIENT_IP, 5353, AUTH_IP, 53,
                    encode_message(
                        make_query(qname, msg_id=msg_id,
                                   recursion_desired=False)
                    ),
                )
            )
    network.run()
    return auth, replies


class TestAuthFastPath:
    def test_fast_replies_match_slow_oracle(self):
        auth, replies = serve(repeat=3)
        # An identical server answering through respond()/encode only:
        # handler bound directly past the template path.
        oracle = AuthoritativeServer(AUTH_IP)
        oracle.load_zone(parse_master_file(ZONE_TEXT))
        oracle._fast_ok = False
        network = Network()
        oracle.attach(network)
        slow_replies = []
        network.bind(CLIENT_IP, 5353,
                     lambda dg, net: slow_replies.append(dg.payload))
        msg_id = 0
        for _ in range(3):
            for qname in QNAMES:
                msg_id += 1
                network.send(
                    Datagram(
                        CLIENT_IP, 5353, AUTH_IP, 53,
                        encode_message(
                            make_query(qname, msg_id=msg_id,
                                       recursion_desired=False)
                        ),
                    )
                )
        network.run()
        assert sorted(replies) == sorted(slow_replies)
        assert auth.queries_served == oracle.queries_served == 9

    def test_counters_and_log_cover_fast_serves(self):
        auth, replies = serve(repeat=2)
        assert auth.queries_served == 6
        assert len(auth.query_log) == 6
        assert [entry.qname for entry in auth.query_log] == QNAMES * 2
        assert all(entry.rcode == 0 for entry in auth.query_log)

    def test_cname_answers_stay_on_slow_path(self):
        # A CNAME lookup is not the single-A shape; it must still be
        # answered (slow path), never templated wrongly.
        auth, replies = serve(qnames=["www.ucfsealresearch.net"], repeat=2)
        assert len(replies) == 2
        assert replies[0][2:] == replies[1][2:]  # only msg_id differs
        assert auth.queries_served == 2

    def test_respond_override_disables_fast_path(self):
        # The poisoning experiment's server overrides respond(); every
        # query must keep flowing through it.
        assert PoisoningAuthServer(AUTH_IP)._fast_ok is False
        auth, replies = serve(server_cls=PoisoningAuthServer)
        assert len(replies) == 6
        assert auth.queries_served == 6


NO_SOA_ZONE = """\
$ORIGIN example.org.
$TTL 300
www IN A 192.0.2.1
"""

NEGATIVE_QNAMES = [
    # NXDOMAIN at several qname lengths (the template key carries it).
    "missing.ucfsealresearch.net", "gone.ucfsealresearch.net",
    "nope.ucfsealresearch.net", "absent1.ucfsealresearch.net",
    "absent22.ucfsealresearch.net", "a.b.c.ucfsealresearch.net",
    # The SOA owner is the apex, which compresses against the qname.
    "ucfsealresearch.net", "ns1.ucfsealresearch.net",
    "hostmaster.ucfsealresearch.net", "x.hostmaster.ucfsealresearch.net",
    # A zone without an SOA: empty authority section.
    "nothere.example.org", "www.example.org",
]


def serve_negative(slow, qtypes=(1, 28, 16), repeat=2, rate_limiter=None):
    network = Network()
    auth = AuthoritativeServer(AUTH_IP, rate_limiter=rate_limiter)
    auth.load_zone(parse_master_file(ZONE_TEXT))
    auth.load_zone(parse_master_file(NO_SOA_ZONE))
    auth._fast_ok = not slow
    auth.attach(network)
    replies = []
    network.bind(CLIENT_IP, 5353, lambda dg, net: replies.append(dg.payload))
    msg_id = 0
    for _ in range(repeat):
        for qname in NEGATIVE_QNAMES:
            for qtype in qtypes:
                msg_id += 1
                network.send(Datagram(
                    CLIENT_IP, 5353, AUTH_IP, 53,
                    encode_message(make_query(qname, qtype=qtype,
                                              msg_id=msg_id,
                                              recursion_desired=msg_id % 2)),
                ))
                network.run()
    return auth, replies


class TestAuthNegativeFastPath:
    def test_negative_replies_match_slow_oracle(self):
        auth, replies = serve_negative(slow=False)
        oracle, slow_replies = serve_negative(slow=True)
        assert replies == slow_replies
        assert auth.queries_served == oracle.queries_served
        assert auth.query_log == oracle.query_log

    def test_nxdomain_and_nodata_rows_in_the_query_log(self):
        auth, replies = serve_negative(slow=False, qtypes=(16,), repeat=1)
        rows = {entry.qname: entry.rcode for entry in auth.query_log}
        assert rows["missing.ucfsealresearch.net"] == 3  # NXDOMAIN
        assert rows["ns1.ucfsealresearch.net"] == 3
        assert rows["ucfsealresearch.net"] == 0  # NODATA (SOA, no TXT)
        assert rows["www.example.org"] == 0
        assert auth.queries_served == len(NEGATIVE_QNAMES)

    def test_soa_guards_keep_a_same_length_name_off_the_template(self):
        # Same length as the verified names, but the SOA's mname
        # compresses against this qname's "ns1..." suffix.
        qnames = [f"{label}.ucfsealresearch.net"
                  for label in ("abcde", "fghij", "klmno", "pqrst")]
        qnames.append("x.ns1.ucfsealresearch.net")

        def run(slow):
            network = Network()
            auth = AuthoritativeServer(AUTH_IP)
            auth.load_zone(parse_master_file(ZONE_TEXT))
            auth._fast_ok = not slow
            auth.attach(network)
            replies = []
            network.bind(CLIENT_IP, 5353,
                         lambda dg, net: replies.append(dg.payload))
            for index, qname in enumerate(qnames):
                network.send(Datagram(
                    CLIENT_IP, 5353, AUTH_IP, 53,
                    encode_message(make_query(qname, msg_id=index)),
                ))
                network.run()
            return replies

        assert run(slow=False) == run(slow=True)

    def test_verified_negative_shapes_skip_the_encoder(self, monkeypatch):
        from repro.dnssrv import auth as auth_module

        network = Network()
        auth = AuthoritativeServer(AUTH_IP)
        auth.load_zone(parse_master_file(ZONE_TEXT))
        auth.attach(network)
        network.bind(CLIENT_IP, 5353, lambda dg, net: None)
        encodes = []
        encode = auth_module.encode_message
        monkeypatch.setattr(
            auth_module, "encode_message",
            lambda message: encodes.append(1) or encode(message),
        )
        for index in range(8):
            network.send(Datagram(
                CLIENT_IP, 5353, AUTH_IP, 53,
                encode_message(make_query(
                    f"nx{index}.ucfsealresearch.net", msg_id=index,
                    recursion_desired=False,
                )),
            ))
            network.run()
        # One render to cut the template, two to verify it.
        assert len(encodes) == 3
        assert auth.queries_served == 8

    def test_rate_limited_negative_replies_match_slow_oracle(self):
        from repro.dnssrv.ratelimit import ResponseRateLimiter

        auth, replies = serve_negative(
            slow=False, rate_limiter=ResponseRateLimiter(1.0, burst=5.0)
        )
        oracle, slow_replies = serve_negative(
            slow=True, rate_limiter=ResponseRateLimiter(1.0, burst=5.0)
        )
        assert replies == slow_replies
        assert auth.query_log == oracle.query_log
