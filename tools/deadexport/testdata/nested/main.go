package main

import (
	"fmt"

	"fixture/lib"
)

func main() { fmt.Println(lib.NestedOnly()) }
