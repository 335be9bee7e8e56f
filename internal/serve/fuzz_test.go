package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit posts arbitrary bodies to POST /v1/sessions. Whatever the
// body, the handler answers without panicking, and with no 5xx other
// than 503: a panic under the server mutex would wedge the daemon. A
// 202 never ends in a failure at start: what would fail the build or
// the controller is refused at submit.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		// A degenerate matmul whose blocks would be zero bytes.
		`{"tenant":"acme","kernel":"matmul","bytes":1,"footprint":1}`,
		// The bodies of the CI hetmemd smoke.
		`{"tenant":"acme","kernel":"stencil","bytes":536870912,"reduced":134217728,"footprint":201326592,"iterations":2,"sweeps":4,"trace":true,"adapt":true}`,
		`{"tenant":"beta","kernel":"shift","bytes":268435456,"reduced":134217728,"footprint":201326592,"iterations":2,"sweeps":4,"trace":true}`,
		// A stencil whose active set rounds up past its total.
		`{"tenant":"acme","kernel":"stencil","bytes":104857599,"reduced":104857598}`,
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
		// The submission is the server's first, so a 202 starts it at
		// once (its footprint fits an idle machine), building its app.
		if rec.Code == 202 {
			if sess := srv.Scheduler().Sessions()[0]; sess.State == Failed {
				t.Fatalf("202 for %q, then failed at start: %s", body, sess.Err)
			}
		}
	})
}
