package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit posts arbitrary bodies to POST /v1/sessions. Whatever the
// body, the handler answers without panicking, and with no 5xx other
// than 503: a panic under the server mutex would wedge the daemon.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		// A degenerate matmul whose blocks would be zero bytes.
		`{"tenant":"acme","kernel":"matmul","bytes":1,"footprint":1}`,
		// The bodies of the CI hetmemd smoke.
		`{"tenant":"acme","kernel":"stencil","bytes":536870912,"reduced":134217728,"footprint":201326592,"iterations":2,"sweeps":4,"trace":true,"adapt":true}`,
		`{"tenant":"beta","kernel":"shift","bytes":268435456,"reduced":134217728,"footprint":201326592,"iterations":2,"sweeps":4,"trace":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := testConfig()
		cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 512 * mb, Weight: 2}, {Name: "beta", Budget: 512 * mb, Weight: 1}}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != 503 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}
