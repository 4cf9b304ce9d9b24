create table g (a, b);
insert into g values (1, 2), (2, 3), (10, 11);
\cc g rc
\cc g auto
\cc g tp
\q
