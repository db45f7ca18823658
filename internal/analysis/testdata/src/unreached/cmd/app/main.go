// Command app is the fixture module's one caller outside internal/.
package main

import (
	"fmt"

	"unreached/internal/iface"
	"unreached/internal/lib"
	"unreached/internal/marked"
)

func main() {
	lib.Cross()
	fmt.Println(lib.Table, iface.Total(lib.Square{Side: 2}), marked.Stale, marked.Imported())
}
