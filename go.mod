module qtls

go 1.23
