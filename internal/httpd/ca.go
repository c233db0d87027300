package httpd

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"
)

// CA is an ephemeral in-memory certificate authority: a self-signed
// root generated at construction, minting per-origin leaf
// certificates on demand. It exists so the gateway can terminate real
// TLS for the mounted origins without any key material ever touching
// disk; clients in the same process trust it through Pool.
//
// Leafs are keyed by SNI server name: the first handshake naming an
// origin host mints (and caches) that host's certificate, so every
// mounted origin presents its own identity, exactly like a
// multi-tenant fronting proxy. Handshakes without SNI (admin probes
// dialing the listener IP) get a default leaf carrying loopback SANs.
type CA struct {
	key  *ecdsa.PrivateKey
	cert *x509.Certificate

	mu     sync.Mutex
	leaves map[string]*tls.Certificate
	serial int64
}

// NewCA generates a fresh ECDSA P-256 root.
func NewCA() (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("httpd: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "escudo ephemeral CA", Organization: []string{"escudo-serve"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            1,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("httpd: self-signing CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("httpd: parsing CA cert: %w", err)
	}
	return &CA{
		key:    key,
		cert:   cert,
		leaves: map[string]*tls.Certificate{},
		serial: 1,
	}, nil
}

// Pool returns a cert pool trusting exactly this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.cert)
	return pool
}

// defaultLeafName keys the SNI-less leaf in the cache.
const defaultLeafName = "\x00default"

// Leaf returns the cached leaf certificate for host, minting it on
// first use. host may be a DNS name or an IP literal.
func (ca *CA) Leaf(host string) (*tls.Certificate, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.leafLocked(host)
}

func (ca *CA) leafLocked(host string) (*tls.Certificate, error) {
	if leaf, ok := ca.leaves[host]; ok {
		return leaf, nil
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("httpd: generating leaf key for %s: %w", host, err)
	}
	ca.serial++
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.serial),
		Subject:      pkix.Name{CommonName: host},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	if host == defaultLeafName {
		// The no-SNI leaf: admin probes dial the listener address
		// directly, so it must verify as the loopback host.
		tmpl.Subject.CommonName = "escudo gateway"
		tmpl.DNSNames = []string{"localhost"}
		tmpl.IPAddresses = []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback}
	} else if ip := net.ParseIP(host); ip != nil {
		tmpl.IPAddresses = []net.IP{ip}
	} else {
		tmpl.DNSNames = []string{host}
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("httpd: minting leaf for %s: %w", host, err)
	}
	leaf := &tls.Certificate{
		Certificate: [][]byte{der, ca.cert.Raw},
		PrivateKey:  key,
	}
	ca.leaves[host] = leaf
	return leaf, nil
}

// getCertificate is the tls.Config.GetCertificate hook: per-origin
// leafs selected by SNI, the loopback default when the client named
// none.
func (ca *CA) getCertificate(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
	name := hello.ServerName
	if name == "" {
		name = defaultLeafName
	}
	return ca.Leaf(name)
}

// ServerConfig returns the tls.Config a Gateway terminates https with.
// The ALPN list offers h2 first so clients that force HTTP/2 (the
// pooled ClientTransport does) multiplex streams over one connection
// per origin; http/1.1 stays on the list for plain keep-alive clients
// and admin probes. The CA private key backing GetCertificate never
// leaves this process — leafs are minted in-memory per SNI name.
func (ca *CA) ServerConfig() *tls.Config {
	return &tls.Config{
		MinVersion:     tls.VersionTLS12,
		NextProtos:     []string{"h2", "http/1.1"},
		GetCertificate: ca.getCertificate,
	}
}
