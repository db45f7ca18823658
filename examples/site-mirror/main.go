// Site mirror: the update-management story of §3 at campus scale. A site
// mirrors the XSEDE Yum repository locally, serves it through the
// versioned control API (which preserves the Yum routes that served
// cb-repo.iu.xsede.org), points its cluster at the mirror, and runs the
// paper's recommended notify-before-apply update workflow when upstream
// publishes new builds.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"xcbc/internal/repo"
	"xcbc/internal/rpm"
	"xcbc/pkg/xcbc"
	"xcbc/pkg/xcbc/api"
)

func main() {
	ctx := context.Background()

	// Upstream: the XSEDE repository at IU.
	upstream, err := xcbc.NewXNITRepository()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upstream %s: %d packages (revision %d)\n",
		upstream.ID, upstream.Len(), upstream.Revision())

	// The campus mirror syncs incrementally.
	mirror := repo.NewMirror(upstream, "xsede-campus")
	added, removed, err := mirror.Sync()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial mirror sync: +%d -%d packages\n", added, removed)
	if bad := mirror.VerifyIntegrity(time.Now()); len(bad) != 0 {
		log.Fatalf("mirror corrupt: %v", bad)
	}
	fmt.Println("mirror integrity: all checksums verified")

	// Serve the mirror through the control API and exercise both client
	// paths: the versioned JSON API and the legacy Yum metadata route.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	apiSrv := api.New(api.Config{Repos: []*repo.Repository{mirror.Local}})
	srv := &http.Server{Handler: apiSrv.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	repos := mustGet(base + "/api/v1/repos")
	fmt.Printf("GET /api/v1/repos -> %s", repos)

	md, err := repo.DecodeMetadata([]byte(mustGet(base + "/xsede-campus/repodata/repomd.json")))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched metadata over HTTP: %d package records from %s\n", len(md.Packages), base)

	// A cluster consumes the mirror.
	d, err := xcbc.NewXCBC(
		xcbc.WithCluster("littlefe"),
		xcbc.WithScheduler("torque"),
	).Deploy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	d.Repos().Add(repo.Config{Repo: mirror.Local, Priority: xcbc.XNITPriority, Enabled: true, GPGCheck: true})

	// Upstream publishes a security gcc and a feature R; the mirror follows.
	err = upstream.Publish(
		rpm.NewPackage("gcc", "4.4.7-17.el6", rpm.ArchX86_64).
			Category("security update").
			Requires(rpm.Cap("glibc"), rpm.Cap("gmp"), rpm.Cap("mpfr")).Build(),
		rpm.NewPackage("R", "3.1.2-1.el6", rpm.ArchX86_64).
			Category("enhancement").
			Requires(rpm.Cap("R-core")).Build(),
	)
	if err != nil {
		log.Fatal(err)
	}
	added, removed, err = mirror.Sync()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upstream published updates; mirror sync: +%d -%d\n", added, removed)

	// The paper's guidance: review first (notify), auto-apply only security.
	chk := d.UpdateCheck(xcbc.UpdateSecurityOnly, time.Now())
	head := d.Hardware().Frontend
	fmt.Printf("\nfrontend update check under security-only policy:\n%s", chk.ByNode[head.Name].Summary)
	fmt.Printf("gcc on frontend is now %s (security auto-applied)\n",
		head.Packages().Newest("gcc").EVR)
	fmt.Printf("R on frontend is still %s (feature update held for review)\n",
		head.Packages().Newest("R").EVR)
}

func mustGet(url string) string {
	res, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		log.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d %s", url, res.StatusCode, body)
	}
	return string(body)
}
