// Command app is the fixture module's one caller outside internal/ and
// pkg/.
package main

import (
	"fmt"

	"unreached/internal/iface"
	"unreached/internal/lib"
	"unreached/internal/marked"
	"unreached/pkg/sdk"
)

func main() {
	lib.Cross()
	fmt.Println(lib.Table, iface.Total(lib.Square{Side: 2}), marked.Stale, marked.Imported())

	c := sdk.Open("app")
	out, err := sdk.Print()
	println(c.Name, c.Stale, sdk.Convert(1, 2), sdk.NewDerived().ID, len(out), err == nil, len(sdk.Errors(nil)))
}
